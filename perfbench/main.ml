(* End-to-end benchmark of the alias analysis: one named workload, inputs
   made from a seed, measured for a given number of seconds, outputs
   checked independently.  The last line of standard output is the
   result as one JSON object: every end-to-end metric, or with
   [--trace 1] every per-layer metric.

     main.exe --workload linux-cold|paper-suite|server-mix --seed N
              --seconds S --trace 0|1 --analyze PATH

   [--analyze] names the [analyze] executable server-mix (and a traced
   run's transport probe) starts as the daemon.  perfbench/run.py builds
   both and passes it.  Generated inputs, daemon sockets and logs, and
   the traced run's span dump go to .perfbench_work/ in the current
   directory. *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload linux-cold|paper-suite|server-mix --seed N \
     --seconds S --trace 0|1 --analyze PATH";
  exit 2

let parse argv =
  let get k =
    let rec find = function
      | x :: v :: _ when x = k -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find (List.tl (Array.to_list argv))
  in
  let req k = match get k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (req k) with Some n -> n | None -> usage () in
  {
    workload = req "--workload";
    seed = int "--seed";
    seconds = float_of_int (int "--seconds");
    trace = (match req "--trace" with "0" -> false | "1" -> true | _ -> usage ());
    analyze_exe = req "--analyze";
    work_dir = ".perfbench_work";
  }

let () =
  let args = parse Sys.argv in
  (* a signal must not orphan the daemon: exiting runs the at_exit
     cleanup that kills and reaps it *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.mkdir args.work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let result =
    match args.workload with
    | "linux-cold" -> Linux_cold.run args
    | "paper-suite" -> Paper_suite.run args
    | "server-mix" -> Server_mix.run args
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  let result =
    if not args.trace then result
    else begin
      Probes.fill args;
      Layers.print_table ();
      let spans = Filename.concat args.work_dir (Printf.sprintf "spans-%s-%d.json" args.workload args.seed) in
      Trace.write_json spans;
      info "spans written to %s" spans;
      { result with metrics = Layers.finish () }
    end
  in
  List.iter (fun m -> info "%-16s %14.6g %s" m.m_name m.m_value m.m_unit) result.metrics;
  print_endline (result_json result);
  if result.failed > 0 || !fail_count > 0 then exit 1
