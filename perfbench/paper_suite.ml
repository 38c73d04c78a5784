(* paper-suite: the paper's evaluation over the 13 Figure-2 programs.

   One pass analyses every program, in an order the seed shuffles: the
   engine pipeline (compile, VDG, CI), the CS solve, the Section 4.3
   headline comparison (indirect memops where CS refines CI) and the
   Section 6 client, [Lint.run ~compare_cs:true].  Each pass runs on a
   fresh domain, so it starts from an empty Ptset universe.  A pass is
   both the round and the operation: the median of per-program times
   would jump between programs of very different sizes. *)

open Common

(* Indirect memory operations whose CS location set differs from CI's. *)
let headline_delta (a : Engine.analysis) cs =
  List.fold_left
    (fun acc ((n : Vdg.node), _) ->
      let sorted l = List.sort Apath.compare l in
      if
        List.equal Apath.equal
          (sorted (Ci_solver.referenced_locations a.Engine.ci n.Vdg.nid))
          (sorted (Cs_solver.referenced_locations cs n.Vdg.nid))
      then acc
      else acc + 1)
    0
    (Vdg.indirect_memops a.Engine.graph)

type outcome = {
  oc_name : string;
  oc_analysis : Engine.analysis;
  oc_cs : Cs_solver.t;
  oc_delta : int;
  oc_fingerprint : Digest.t;  (* headline delta and lint verdicts *)
}

let evaluate name src =
  let a =
    Trace.span "engine.run" (fun () ->
        Result.get_ok (Engine.run (Engine.load_string ~file:(name ^ ".c") src)))
  in
  let cs =
    Trace.span "cs" (fun () ->
        Trace.minor_mwords "cs.minor_mwords" (fun () -> Engine.cs a))
  in
  let delta = Trace.span "headline" (fun () -> headline_delta a cs) in
  let report = Trace.span "lint" (fun () -> Lint.run ~compare_cs:true a) in
  let json = Lint.to_json report in
  let fingerprint =
    Digest.string
      (Printf.sprintf "%d|%s|%s" delta
         (Ejson.to_compact_string
            (Option.value ~default:Ejson.Null (Ejson.member "diagnostics" json)))
         (Ejson.to_compact_string
            (Option.value ~default:Ejson.Null (Ejson.member "delta" json))))
  in
  if !Trace.enabled then begin
    let tel = a.Engine.telemetry in
    List.iter
      (fun phase ->
        Trace.count (phase ^ ".s")
          (Option.value ~default:0. (Telemetry.phase_seconds tel phase)))
      [ "frontend"; "vdg"; "ci" ];
    Trace.count "vdg.nodes" (float_of_int (Vdg.n_nodes a.Engine.graph));
    (* the solvers' counters, as Engine.run and Engine.cs recorded them *)
    Option.iter (Layers.count_solver `Ci) tel.Telemetry.t_ci;
    Option.iter (Layers.count_solver `Cs) tel.Telemetry.t_cs;
    Trace.count "lint.diags" (float_of_int (List.length report.Lint.rp_diags))
  end;
  { oc_name = name; oc_analysis = a; oc_cs = cs; oc_delta = delta;
    oc_fingerprint = fingerprint }

let pass programs = on_fresh_domain (fun () ->
    List.map (fun (name, src) -> evaluate name src) programs)

(* Engine.run does not expose its phases' allocation, so a traced run
   replays the pass's compile, VDG and CI stages through the staged API
   once and records their minor words per pass (allocation counts repeat
   exactly from run to run). *)
let staged_replay programs =
  on_fresh_domain (fun () ->
      let words = Array.make 3 0. in
      let add i f =
        let w0 = Gc.minor_words () in
        let v = f () in
        words.(i) <- words.(i) +. ((Gc.minor_words () -. w0) /. 1e6);
        v
      in
      List.iter
        (fun (name, src) ->
          let input = Engine.load_string ~file:(name ^ ".c") src in
          let prog = add 0 (fun () -> Engine.compile input) in
          let g = add 1 (fun () -> Engine.build_graph prog) in
          ignore (add 2 (fun () -> Engine.solve_ci g)))
        programs;
      List.iteri
        (fun i m -> Layers.set ~origin:"staged replay" m words.(i))
        [ "frontend.minor_mwords"; "vdg.minor_mwords"; "ci.minor_mwords" ])

(* ---- independent checks ------------------------------------------------------ *)

let cs_subset_of_ci (o : outcome) =
  let a = o.oc_analysis in
  let bad = ref 0 in
  Vdg.iter_nodes a.Engine.graph (fun n ->
      let ci = Ci_solver.pairs a.Engine.ci n.Vdg.nid in
      List.iter
        (fun p -> if not (Ptpair.Set.mem ci p) then incr bad)
        (Cs_solver.pairs o.oc_cs n.Vdg.nid));
  !bad

(* Checks on the last pass's solutions: interpreter soundness of CI and
   CS, CS pairs within CI pairs at every node, and a jobs=2 sharded CI
   solve with the same canonical digest.  Returns the programs that
   failed. *)
let check_program (o : outcome) src =
  let a = o.oc_analysis in
  let ok = ref true in
  let checked, misses =
    soundness_misses ~graph:a.Engine.graph ~prog:a.Engine.prog
      ~tiers:
        [
          ("ci", Ci_solver.referenced_locations a.Engine.ci);
          ("cs", Cs_solver.referenced_locations o.oc_cs);
        ]
  in
  if misses <> [] then begin
    ok := false;
    check_failed "paper-suite %s: %d observations not covered, e.g. %s"
      o.oc_name (List.length misses) (List.hd misses)
  end;
  let bad = cs_subset_of_ci o in
  if bad > 0 then begin
    ok := false;
    check_failed "paper-suite %s: %d CS pairs outside CI" o.oc_name bad
  end;
  let par =
    Result.get_ok
      (Engine.run ~jobs:2 (Engine.load_string ~file:(o.oc_name ^ ".c") src))
  in
  if Solution_digest.ci_digest par <> Solution_digest.ci_digest a then begin
    ok := false;
    check_failed "paper-suite %s: jobs=2 ci_digest differs" o.oc_name
  end;
  (!ok, checked)

let run (args : args) =
  (* set-up: generate the 13 programs from a collected heap, five times
     before the first pass and five more before each later one, so the
     median spans the run's phases of speed (as in linux_cold.ml); CPU
     seconds, as the passes *)
  let setups = ref [] in
  let setup () =
    let programs = ref [] in
    for _ = 1 to 5 do
      Gc.full_major ();
      let ps, _, dt =
        timed_cpu (fun () ->
            List.map
              (fun (e : Suite.entry) -> (e.Suite.profile.Profile.name, Suite.source e))
              Suite.benchmarks)
      in
      setups := dt :: !setups;
      programs := ps
    done;
    !programs
  in
  let order = Array.of_list (setup ()) in
  Srng.shuffle (Srng.create (Int64.of_int args.seed)) order;
  let programs = Array.to_list order in
  info "paper-suite: 13 programs, order %s"
    (String.concat " " (List.map fst programs));
  let fingerprints = ref [] and last = ref [] and walls = ref [] and peak = ref nan in
  let loop seconds =
    let times = ref [] in
    let t_start = now () in
    (* at least three passes, so the median drops one pass that a burst
       of contention on the box slowed; a traced run measures twice and
       keeps to two each time, to stay within its time *)
    let min_passes = if args.trace then 2 else 3 in
    while now () -. t_start < seconds || List.length !times < min_passes do
      last := [];
      if !times <> [] then ignore (setup ());
      Gc.full_major ();
      let outcomes, wall, cpu = timed_cpu (fun () -> pass programs) in
      if Float.is_nan !peak then peak := peak_rss_mb "self";
      fingerprints :=
        List.map (fun o -> (o.oc_name, o.oc_fingerprint)) outcomes :: !fingerprints;
      last := outcomes;
      walls := wall :: !walls;
      times := cpu :: !times
    done;
    !times
  in
  let times = Layers.measure args loop in
  if args.trace then staged_replay programs;
  (* checks *)
  let failed_programs = ref [] and observations = ref 0 in
  List.iter
    (fun o ->
      let ok, checked = check_program o (List.assoc o.oc_name programs) in
      observations := !observations + checked;
      if not ok then failed_programs := o.oc_name :: !failed_programs)
    !last;
  let reference name =
    (List.find (fun o -> o.oc_name = name) !last).oc_fingerprint
  in
  (* a pass fails when any of its programs failed a check or evaluated
     differently from the checked last pass *)
  let failed =
    List.length
      (List.filter
         (fun pass ->
           List.exists
             (fun (name, fp) ->
               List.mem name !failed_programs
               || (fp <> reference name
                  && (check_failed "paper-suite %s: a pass disagreed with the last" name;
                      true)))
             pass)
         !fingerprints)
  in
  (* reference figures, not gates *)
  let refined = List.length (List.filter (fun o -> o.oc_delta > 0) !last) in
  let ci_total, cs_total =
    List.fold_left
      (fun (ci, cs) o ->
        let a = o.oc_analysis in
        let pairs c = (Option.get c).Telemetry.sc_pairs in
        ( ci + pairs a.Engine.telemetry.Telemetry.t_ci,
          cs + pairs a.Engine.telemetry.Telemetry.t_cs ))
      (0, 0) !last
  in
  info "checks: %d interpreter observations covered by CI and CS; CS within CI \
        at every node; jobs=2 digests equal%s"
    !observations
    (if !failed_programs = [] then "" else " (FAILURES)");
  info "headline: CS refines CI at some indirect memop in %d of 13 programs; \
        Figure 6 spurious CI pairs %.2f%% (%d of %d)"
    refined
    (100. *. float_of_int (ci_total - cs_total) /. float_of_int ci_total)
    (ci_total - cs_total) ci_total;
  let cpu_s = median times in
  info "suite: %d passes, CPU median %.3f s (q1 %.3f, q3 %.3f), wall median \
        %.3f s (q1 %.3f, q3 %.3f)"
    (List.length times) cpu_s (quantile times 0.25) (quantile times 0.75)
    (median !walls) (quantile !walls 0.25) (quantile !walls 0.75);
  {
    attempted = List.length times;
    failed;
    metrics =
      [
        metric "setup_s" "s" (median !setups);
        metric "op_cpu_s" "s" cpu_s;
        metric "peak_rss_mb" "MB" !peak;
      ];
  }
