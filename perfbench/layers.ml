(* The per-layer metrics a traced run prints, and where each comes from.

   A workload's own traced rounds come first: [from_rounds] turns their
   spans (self time) and counters into per-round values.  Layers the
   workload's rounds never reach are then measured by a probe on the
   workload's own subject program ({!Probes}); [set] keeps the first
   value a metric gets, so a probe never overrides what the rounds
   measured.  [finish] refuses to print a partial set. *)

let all =
  [
    ("frontend.s", "s"); ("frontend.minor_mwords", "Mwords");
    ("vdg.s", "s"); ("vdg.nodes", "count"); ("vdg.minor_mwords", "Mwords");
    ("ci.s", "s"); ("ci.flow_in", "count"); ("ci.worklist_pops", "count");
    ("ci.pairs", "count"); ("ci.minor_mwords", "Mwords");
    ("ptset.meet_hit_ratio", "ratio"); ("ptset.interned_sets", "count");
    ("cs.s", "s"); ("cs.flow_in", "count"); ("cs.meets", "count");
    ("cs.minor_mwords", "Mwords");
    ("par.ci_s", "s");
    ("lint.s", "s"); ("lint.diags", "count");
    ("digest.s", "s");
    ("incr.s", "s"); ("incr.resolved_procs", "count");
    ("incr.reused_procs", "count");
    ("protocol.decode_us", "us"); ("protocol.encode_us", "us");
    ("handler.may_alias_us", "us"); ("handler.points_to_us", "us");
    ("handler.modref_us", "us"); ("handler.conflicts_us", "us");
    ("handler.purity_us", "us"); ("handler.lint_us", "us");
    ("transport.us", "us");
    ("session.update_s", "s");
    ("trace.overhead_pct", "%");
  ]

let values : (string, float * string) Hashtbl.t = Hashtbl.create 64

(* [origin] says which run measured the value: the workload's rounds or
   a named probe. *)
let set ?(origin = "rounds") name v =
  if not (List.mem_assoc name all) then invalid_arg ("Layers.set: " ^ name);
  if not (Hashtbl.mem values name) then Hashtbl.replace values name (v, origin)

let has name = Hashtbl.mem values name

(* ---- solver counters ------------------------------------------------------------- *)

(* [Engine.run] and [Engine.cs] fill a [Telemetry.solver_counters]
   record per solve ([a.telemetry.t_ci], [t_cs]); a staged solve through
   [Engine.solve_ci] / [solve_cs] gets the same record from these two,
   read from the solvers' own accessors. *)
let ci_counters ci : Telemetry.solver_counters =
  let ps = Ci_solver.ptset_stats ci in
  {
    Telemetry.sc_flow_in = Ci_solver.flow_in_count ci;
    sc_flow_out = Ci_solver.flow_out_count ci;
    sc_worklist_pushes = Ci_solver.worklist_pushes ci;
    sc_worklist_pops = Ci_solver.worklist_pops ci;
    sc_worklist_skips = Ci_solver.worklist_dup_skips ci;
    sc_pairs = (Stats.ci_pair_counts ci).Stats.pc_total;
    sc_meet_cache_hits = ps.Ptset.st_cache_hits;
    sc_meet_cache_misses = ps.Ptset.st_cache_misses;
    sc_interned_sets = ps.Ptset.st_sets;
    sc_peak_table_bytes = ps.Ptset.st_peak_bytes;
  }

let cs_counters graph cs : Telemetry.solver_counters =
  let ps = Cs_solver.ptset_stats cs in
  {
    Telemetry.sc_flow_in = Cs_solver.flow_in_count cs;
    sc_flow_out = Cs_solver.flow_out_count cs;
    sc_worklist_pushes = Cs_solver.worklist_pushes cs;
    sc_worklist_pops = Cs_solver.worklist_pops cs;
    sc_worklist_skips = Cs_solver.worklist_stale_skips cs;
    sc_pairs = (Stats.cs_pair_counts cs graph).Stats.pc_total;
    sc_meet_cache_hits = ps.Ptset.st_cache_hits;
    sc_meet_cache_misses = ps.Ptset.st_cache_misses;
    sc_interned_sets = ps.Ptset.st_sets;
    sc_peak_table_bytes = ps.Ptset.st_peak_bytes;
  }

(* One solve's counters under their metric names; the Ptset meet memo's
   hits and misses become [ptset.meet_hit_ratio] in [hit_ratio]. *)
let solver_counts tier (c : Telemetry.solver_counters) =
  let f = float_of_int in
  (match tier with
  | `Ci ->
    [
      ("ci.flow_in", f c.Telemetry.sc_flow_in);
      ("ci.worklist_pops", f c.Telemetry.sc_worklist_pops);
      ("ci.pairs", f c.Telemetry.sc_pairs);
    ]
  | `Cs ->
    [ ("cs.flow_in", f c.Telemetry.sc_flow_in); ("cs.meets", f c.Telemetry.sc_flow_out) ])
  @ [
      ("ptset.hits", f c.Telemetry.sc_meet_cache_hits);
      ("ptset.misses", f c.Telemetry.sc_meet_cache_misses);
      ("ptset.interned_sets", f c.Telemetry.sc_interned_sets);
    ]

(* Add one solve's counters to the traced run's totals. *)
let count_solver tier c = List.iter (fun (k, v) -> Trace.count k v) (solver_counts tier c)

let hit_ratio ~hits ~misses = if hits +. misses > 0. then Some (hits /. (hits +. misses)) else None

(* Span names whose self time is a layer's time, and the metric each
   feeds. *)
let span_layers =
  [
    ("frontend", "frontend.s"); ("vdg", "vdg.s"); ("ci", "ci.s"); ("cs", "cs.s");
    ("lint", "lint.s"); ("digest", "digest.s"); ("incr", "incr.s");
    ("session.update", "session.update_s");
  ]

let counter_layers =
  [
    "frontend.minor_mwords"; "vdg.nodes"; "vdg.minor_mwords"; "ci.flow_in";
    "ci.worklist_pops"; "ci.pairs"; "ci.minor_mwords"; "ptset.interned_sets";
    "cs.flow_in"; "cs.meets"; "cs.minor_mwords"; "lint.diags";
    "incr.resolved_procs"; "incr.reused_procs";
  ]

(* Per-round values from everything traced so far. *)
let from_rounds ~rounds =
  let per_round v = v /. float_of_int (max 1 rounds) in
  let selfs = Trace.self_by_name () in
  (* a layer's time is its spans' self time plus whatever the workload
     read from the engine's own phase telemetry under the metric's name *)
  List.iter
    (fun (span, metric) ->
      match (List.assoc_opt span selfs, Hashtbl.find_opt Trace.counters metric) with
      | None, None -> ()
      | s, c ->
        let s = Option.fold ~none:0. ~some:snd s in
        set metric (per_round (s +. Option.value ~default:0. c)))
    span_layers;
  List.iter
    (fun c ->
      if Hashtbl.mem Trace.counters c then set c (per_round (Trace.counter c)))
    counter_layers;
  Option.iter (set "ptset.meet_hit_ratio")
    (hit_ratio ~hits:(Trace.counter "ptset.hits") ~misses:(Trace.counter "ptset.misses"))

let finish () =
  List.map
    (fun (name, unit) ->
      match Hashtbl.find_opt values name with
      | Some (v, _) -> Common.metric name unit v
      | None -> failwith ("per-layer metric not measured: " ^ name))
    all

let print_table () =
  Common.info "per-layer metrics (origin: this workload's rounds, or a probe):";
  List.iter
    (fun (name, unit) ->
      match Hashtbl.find_opt values name with
      | Some (v, origin) ->
        Common.info "  %-24s %14.6g %-7s %s" name v unit origin
      | None -> Common.info "  %-24s %14s" name "missing")
    all;
  Common.info "self time by span (all traced calls of the run):";
  List.iter
    (fun (name, (calls, t)) ->
      Common.info "  %-24s %8d calls %10.4f s" name calls t)
    (Trace.self_by_name ())

(* Run a workload's measuring loop.  Untraced, it measures the whole
   window.  Traced, it measures half the window untraced and half with
   spans on, records the difference of the two median rounds as the
   tracing overhead, and takes the per-layer values from the traced
   half.  [loop seconds] returns the round times it measured. *)
let measure (args : Common.args) loop =
  if not args.Common.trace then loop args.Common.seconds
  else begin
    let plain = loop (args.Common.seconds /. 2.) in
    Trace.enabled := true;
    let traced = loop (args.Common.seconds /. 2.) in
    let m0 = Common.median plain in
    set "trace.overhead_pct" (100. *. (Common.median traced -. m0) /. m0);
    from_rounds ~rounds:(List.length traced);
    plain @ traced
  end
