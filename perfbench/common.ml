(* Shared plumbing: the run's arguments, timing, order statistics, the
   result record every workload returns, and the interpreter soundness
   check the in-process workloads share. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  analyze_exe : string;  (* the daemon binary server-mix spawns *)
  work_dir : string;  (* generated inputs, sockets, span dumps *)
}

(* Seconds on the monotonic clock, at nanosecond resolution: wall-clock
   floats near 1.7e9 s only resolve 0.24 us, too coarse for one read. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* [f]'s result, wall seconds and CPU seconds.  CPU time is the whole
   process's, user plus system, at microsecond resolution ([Sys.time]
   reads getrusage).  On a virtual machine the kernel leaves out the
   time the host gives this CPU to other guests (steal time), which wall
   time counts: on a shared 2-vCPU guest, steal added up to 0.4 s to
   cold analyses of 1.4-1.7 s of CPU time. *)
let timed_cpu f =
  let c0 = Sys.time () in
  let v, wall = timed f in
  (v, wall, Sys.time () -. c0)

let sorted xs = List.sort Float.compare xs

(* Linear-interpolated quantile of a non-empty list, q in [0, 1]. *)
let quantile xs q =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median xs = quantile xs 0.5

(* The highest percentile with at least ten samples beyond it, as
   (percentile, value); [None] below forty samples, where that
   percentile would be no tail. *)
let tail xs =
  let n = List.length xs in
  if n < 40 then None
  else
    let p = 100. *. (1. -. (10. /. float_of_int n)) in
    let p = Float.of_int (truncate (p *. 100.)) /. 100. in
    Some (p, quantile xs (p /. 100.))

type metric = { m_name : string; m_unit : string; m_value : float }

let metric m_name m_unit m_value = { m_name; m_unit; m_value }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

let fail_count = ref 0

(* A failed independent check: said on stderr, counted, and turned into
   a nonzero exit once the result line is printed. *)
let check_failed fmt =
  Printf.ksprintf
    (fun msg ->
      incr fail_count;
      Printf.eprintf "perfbench: CHECK FAILED: %s\n%!" msg)
    fmt

let info fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt

let result_json r =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (if Float.is_integer m.m_value && Float.abs m.m_value < 1e15 then
             Printf.sprintf "%.0f" m.m_value
           else Printf.sprintf "%.17g" m.m_value)
          m.m_unit)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0 && !fail_count = 0)
    r.attempted r.failed
    (String.concat ", " metrics)

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

(* Run [f] on a fresh domain: a new Ptset universe and empty memo
   caches, the state a fresh [analyze] process starts from. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

(* Peak resident set (VmHWM) of process [pid] ("self" for this one), in
   MB.  The workloads read their own after the first operation: the
   memory one operation needs in a fresh process.  Later operations
   overlap the release of the previous one's heap (the peak after a
   whole paper-suite run moved by a fifth between runs), and the
   runtime's top-heap figure sums each domain's high-water mark, so it
   moved by a third between runs of the same analysis. *)
let peak_rss_mb pid =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

(* ---- interpreter soundness --------------------------------------------------- *)

(* Every access the interpreter observes must be dominated by a location
   some memory operation at the same position and direction references.
   Locations are derived once per node, not once per observation: bc
   alone makes 182k observations over a few thousand memops. *)
let soundness_misses ~graph ~prog ~tiers =
  let res = Interp.run ~fuel:2_000_000 prog in
  (match res.Interp.outcome with
  | Interp.Trap m -> failwith ("interpreter trap: " ^ m)
  | Interp.Exit _ | Interp.Out_of_fuel -> ());
  let by_key = Hashtbl.create 1024 in
  List.iter
    (fun ((n : Vdg.node), rw) ->
      match Vdg.loc_of graph n.Vdg.nid with
      | Some loc ->
        let prior = Option.value ~default:[] (Hashtbl.find_opt by_key (loc, rw)) in
        Hashtbl.replace by_key (loc, rw) (n.Vdg.nid :: prior)
      | None -> ())
    (Vdg.memops graph);
  let memo = Hashtbl.create 1024 in
  let locations tier_name locs nid =
    match Hashtbl.find_opt memo (tier_name, nid) with
    | Some l -> l
    | None ->
      let l = locs nid in
      Hashtbl.replace memo (tier_name, nid) l;
      l
  in
  let checked = ref 0 and misses = ref [] in
  List.iter
    (fun ob ->
      match Interp.observed_apath graph.Vdg.tbl ob with
      | None -> ()
      | Some opath ->
        incr checked;
        let nodes =
          Option.value ~default:[]
            (Hashtbl.find_opt by_key (ob.Interp.ob_loc, ob.Interp.ob_rw))
        in
        List.iter
          (fun (tier_name, locs) ->
            let covered =
              List.exists
                (fun nid ->
                  List.exists
                    (fun al -> Apath.dom al opath)
                    (locations tier_name locs nid))
                nodes
            in
            if not covered then
              misses :=
                Printf.sprintf "%s misses %s at %s" tier_name
                  (Apath.to_string opath)
                  (Srcloc.to_string ob.Interp.ob_loc)
                :: !misses)
          tiers)
    res.Interp.observations;
  (!checked, List.rev !misses)
