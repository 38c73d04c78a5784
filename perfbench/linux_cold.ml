(* linux-cold: cold whole-program analysis of one generated linux-profile
   program, sequential, at the engine's default width.

   One operation is load -> frontend -> VDG -> CI -> the indirect-memop
   report, the work of one [analyze FILE.c] process.  Each repetition
   runs on a fresh domain after a full major collection, so it starts
   with an empty Ptset universe and memo caches, as a new process
   does. *)

open Common

let target_lines = 10_000

let profile seed =
  { (Profile.linux ~target_lines) with
    Profile.name = Printf.sprintf "linux-cold-s%d" seed }

(* The report [analyze] prints: each indirect memory operation with the
   locations it may touch. *)
let memop_report graph ci =
  let b = Buffer.create 65536 in
  List.iter
    (fun ((n : Vdg.node), rw) ->
      Buffer.add_string b n.Vdg.nfun;
      Buffer.add_string b (match rw with `Read -> " read " | `Write -> " write ");
      (match Vdg.loc_of graph n.Vdg.nid with
      | Some l -> Buffer.add_string b (Srcloc.to_string l)
      | None -> Buffer.add_char b '-');
      Buffer.add_string b " : ";
      Buffer.add_string b
        (String.concat ", "
           (List.map Apath.to_string (Ci_solver.referenced_locations ci n.Vdg.nid)));
      Buffer.add_char b '\n')
    (Vdg.indirect_memops graph);
  Buffer.contents b

(* One cold analysis; returns the report's digest, wall seconds and CPU
   seconds (the solver counters are read after the timed section). *)
let analyze path =
  on_fresh_domain (fun () ->
      let (graph, ci, report), wall, cpu =
        timed_cpu (fun () ->
            let input = Trace.span "load" (fun () -> Engine.load_file path) in
            let prog =
              Trace.span "frontend" (fun () ->
                  Trace.minor_mwords "frontend.minor_mwords" (fun () ->
                      Engine.compile input))
            in
            let graph =
              Trace.span "vdg" (fun () ->
                  Trace.minor_mwords "vdg.minor_mwords" (fun () ->
                      Engine.build_graph prog))
            in
            let ci =
              Trace.span "ci" (fun () ->
                  Trace.minor_mwords "ci.minor_mwords" (fun () -> Engine.solve_ci graph))
            in
            (graph, ci, Trace.span "report" (fun () -> memop_report graph ci)))
      in
      if !Trace.enabled then begin
        Trace.count "vdg.nodes" (float_of_int (Vdg.n_nodes graph));
        Layers.count_solver `Ci (Layers.ci_counters ci)
      end;
      (Digest.string report, wall, cpu))

(* Independent checks on a reference solve: interpreter soundness of the
   CI solution, a jobs=2 sharded solve with the same canonical digest,
   and the reference report every timed repetition must reproduce. *)
let reference_checks path =
  on_fresh_domain (fun () ->
      let input = Engine.load_file path in
      let a = Result.get_ok (Engine.run input) in
      let report = Digest.string (memop_report a.Engine.graph a.Engine.ci) in
      let seq_digest, dt =
        timed (fun () -> Trace.span "digest" (fun () -> Solution_digest.ci_digest a))
      in
      Layers.set ~origin:"check" "digest.s" dt;
      let a2 = Trace.span "par" (fun () -> Result.get_ok (Engine.run ~jobs:2 input)) in
      Layers.set ~origin:"check" "par.ci_s"
        (Option.value ~default:0. (Telemetry.phase_seconds a2.Engine.telemetry "ci"));
      let ok = ref true in
      if Solution_digest.ci_digest a2 <> seq_digest then begin
        ok := false;
        check_failed "linux-cold: jobs=2 ci_digest differs from sequential"
      end;
      let checked, misses =
        soundness_misses ~graph:a.Engine.graph ~prog:a.Engine.prog
          ~tiers:[ ("ci", Ci_solver.referenced_locations a.Engine.ci) ]
      in
      if misses <> [] then begin
        ok := false;
        check_failed "linux-cold: %d interpreter observations not covered, e.g. %s"
          (List.length misses) (List.hd misses)
      end;
      info "checks: %d interpreter observations covered by CI; jobs=2 digest %s"
        checked
        (if !ok then "equal" else "DIFFERENT");
      (!ok, report, a))

let run (args : args) =
  let p = profile args.seed in
  let path = Filename.concat args.work_dir "linux_cold.c" in
  (* set-up: generate the program and write it where [load] reads it,
     from a collected heap.  Five times before the first repetition and
     once more before each later one: the box's speed wanders in phases
     of seconds, back-to-back samples of this 7 ms step all land in one
     phase, and a median over samples spread through the run follows
     the run's typical speed.  Timed in CPU seconds, as the
     repetitions are. *)
  let setups = ref [] in
  let setup () =
    Gc.full_major ();
    let (), _, cpu = timed_cpu (fun () -> write_file path (Genc.generate p)) in
    setups := cpu :: !setups
  in
  for _ = 1 to 5 do
    setup ()
  done;
  let src = In_channel.with_open_bin path In_channel.input_all in
  info "linux-cold: %s, %d lines, seed %d" p.Profile.name (Genc.line_count src)
    args.seed;
  let reports = ref [] and walls = ref [] and peak = ref nan in
  let loop seconds =
    let times = ref [] in
    let t_start = now () in
    while now () -. t_start < seconds || List.length !times < 2 do
      if !times <> [] then setup ();
      Gc.full_major ();
      let d, wall, cpu = analyze path in
      if Float.is_nan !peak then peak := peak_rss_mb "self";
      reports := d :: !reports;
      walls := wall :: !walls;
      times := cpu :: !times
    done;
    !times
  in
  let times = Layers.measure args loop in
  let rounds = List.length times in
  let ok, reference, a = reference_checks path in
  let failed =
    if not ok then rounds
    else List.length (List.filter (fun d -> d <> reference) !reports)
  in
  if failed > 0 && ok then
    check_failed "linux-cold: %d repetition(s) reported differently" failed;
  info "graph: %d VDG nodes, %d CI pairs, %d indirect memops"
    (Vdg.n_nodes a.Engine.graph)
    (Option.get a.Engine.telemetry.Telemetry.t_ci).Telemetry.sc_pairs
    (List.length (Vdg.indirect_memops a.Engine.graph));
  let cpu_s = median times in
  info "analyze: %d cold repetitions, CPU median %.3f s (q1 %.3f, q3 %.3f), \
        wall median %.3f s (q1 %.3f, q3 %.3f)"
    rounds cpu_s (quantile times 0.25) (quantile times 0.75) (median !walls)
    (quantile !walls 0.25) (quantile !walls 0.75);
  { attempted = rounds; failed;
      metrics =
        [
          metric "setup_s" "s" (median !setups);
          metric "op_cpu_s" "s" cpu_s;
          metric "peak_rss_mb" "MB" !peak;
        ] }
