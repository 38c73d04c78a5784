(* Probes for the layers a workload's own rounds do not reach, run in a
   traced run only, on bc (the largest program of the paper's suite).  Each probe calls a
   layer's public entry points once (the server layers over a small read
   pool) and records the per-layer metrics that are still missing; what
   the rounds measured always wins ({!Layers.set}). *)

open Common

let set = Layers.set ~origin:"probe"
let need names = List.exists (fun n -> not (Layers.has n)) names

(* A solve's counters that are metrics themselves (not the meet memo's
   raw hits and misses). *)
let set_counts = List.iter (fun (k, v) -> if List.mem_assoc k Layers.all then set k v)

(* [f]'s result, wall seconds, and minor words (millions) on this domain. *)
let gc_timed f =
  let w0 = Gc.minor_words () in
  let v, dt = timed f in
  (v, dt, (Gc.minor_words () -. w0) /. 1e6)

(* Staged pipeline and CS on a fresh domain, as a cold process sees them. *)
let pipeline path =
  on_fresh_domain (fun () ->
      let input = Engine.load_file path in
      let prog, t, w = gc_timed (fun () -> Engine.compile input) in
      set "frontend.s" t;
      set "frontend.minor_mwords" w;
      let g, t, w = gc_timed (fun () -> Engine.build_graph prog) in
      set "vdg.s" t;
      set "vdg.nodes" (float_of_int (Vdg.n_nodes g));
      set "vdg.minor_mwords" w;
      let ci, t, w = gc_timed (fun () -> Engine.solve_ci g) in
      set "ci.s" t;
      set "ci.minor_mwords" w;
      let counts = Layers.solver_counts `Ci (Layers.ci_counters ci) in
      set_counts counts;
      Option.iter (set "ptset.meet_hit_ratio")
        (Layers.hit_ratio ~hits:(List.assoc "ptset.hits" counts)
           ~misses:(List.assoc "ptset.misses" counts));
      if need [ "cs.s"; "cs.flow_in"; "cs.meets"; "cs.minor_mwords" ] then begin
        let cs, t, w = gc_timed (fun () -> Engine.solve_cs g ~ci) in
        set "cs.s" t;
        set "cs.minor_mwords" w;
        set_counts (Layers.solver_counts `Cs (Layers.cs_counters g cs))
      end)

(* Handler, protocol and session layers in process, without a socket:
   [Handler.handle_line] on a private session set, timed per method
   after a first pass over a read pool (which fills the per-session
   answer memo, as the daemon's first reads do).  Returns the read pool
   and the handler's overall median, for the transport estimate. *)
let server_in_process rng (sj : Mix.subject) edited =
  let sessions = Session.create () in
  let h = Handler.create sessions in
  let conn = Handler.new_conn () in
  let reply line =
    match Handler.handle_line h conn line with
    | Handler.Reply r | Handler.Reply_shutdown r -> r
  in
  let opened =
    reply
      (Protocol.request_line ~id:0 ~meth:"open"
         ~params:(Ejson.Assoc [ ("file", Ejson.String sj.Mix.sj_path) ])
         ())
  in
  let session =
    match Protocol.response_of_line opened with
    | Ok { Protocol.rs_result = Ok r; _ } -> Daemon.session_of r
    | _ -> failwith ("probe: open failed: " ^ opened)
  in
  let reads = Mix.pool rng sj in
  let lines = Array.mapi (fun i r -> Mix.request_line ~id:(i + 1) ~session r) reads in
  Array.iter (fun l -> ignore (reply l)) lines;
  (* three timed passes, so the rarest method still has nine samples *)
  let reads = Array.concat [ reads; reads; reads ]
  and lines = Array.concat [ lines; lines; lines ] in
  let per_meth = Hashtbl.create 8 and all = ref [] in
  let decode = ref [] and encode = ref [] in
  Array.iteri
    (fun i line ->
      let r, dt = timed (fun () -> Trace.span "probe.handler" (fun () -> reply line)) in
      let us = dt *. 1e6 in
      all := us :: !all;
      let m = reads.(i).Mix.meth in
      Hashtbl.replace per_meth m
        (us :: Option.value ~default:[] (Hashtbl.find_opt per_meth m));
      (* the wire work of one read, both directions *)
      let result, d1 = timed (fun () -> Protocol.response_of_line r) in
      let (), d2 = timed (fun () -> ignore (Protocol.envelope_of_line line)) in
      decode := ((d1 +. d2) *. 1e6) :: !decode;
      match result with
      | Ok { Protocol.rs_result = Ok res; rs_id; _ } ->
        let (), e1 =
          timed (fun () ->
              ignore (Mix.request_line ~id:i ~session reads.(i));
              ignore (Protocol.ok_response ~id:rs_id res))
        in
        encode := (e1 *. 1e6) :: !encode
      | _ -> failwith ("probe: read failed: " ^ r))
    lines;
  List.iter
    (fun m ->
      match Hashtbl.find_opt per_meth m with
      | Some xs -> set (Printf.sprintf "handler.%s_us" m) (median xs)
      | None -> failwith ("probe: the read pool has no " ^ m))
    [ "may_alias"; "points_to"; "modref"; "conflicts"; "purity"; "lint" ];
  set "protocol.decode_us" (median !decode);
  set "protocol.encode_us" (median !encode);
  let _, dt =
    timed (fun () ->
        Trace.span "probe.session.update" (fun () ->
            Session.update ~source:edited sessions sj.Mix.sj_path))
  in
  set "session.update_s" dt;
  (reads, median !all)

(* The client-observed read median, when the workload measured one. *)
let client_p50_us : float option ref = ref None

(* Fill every per-layer metric still missing.  The transport estimate is
   the client-observed read median minus the handler's: the workload's
   own [client_p50_us], else synchronous round trips through a probe
   daemon. *)
let fill (args : args) =
  let path = Filename.concat args.work_dir "probe_bc.c" in
  let text = Suite.source (Option.get (Suite.find "bc")) in
  write_file path text;
  let rng = Srng.create (Int64.of_int (args.seed + 7)) in
  let edited = List.hd (Mix.variants rng text 1) in
  if
    need
      [
        "frontend.s"; "frontend.minor_mwords"; "vdg.s"; "vdg.minor_mwords"; "ci.s";
        "ci.minor_mwords"; "ptset.interned_sets"; "cs.s"; "cs.minor_mwords";
      ]
  then pipeline path;
  let input = Engine.load_file path in
  let a = Result.get_ok (Engine.run input) in
  if need [ "par.ci_s" ] then begin
    let a2 = Trace.span "probe.par" (fun () -> Result.get_ok (Engine.run ~jobs:2 input)) in
    set "par.ci_s"
      (Option.value ~default:0. (Telemetry.phase_seconds a2.Engine.telemetry "ci"))
  end;
  if need [ "lint.s"; "lint.diags" ] then begin
    let report, dt =
      timed (fun () -> Trace.span "probe.lint" (fun () -> Lint.run a))
    in
    set "lint.s" dt;
    set "lint.diags" (float_of_int (List.length report.Lint.rp_diags))
  end;
  if need [ "digest.s" ] then
    set "digest.s"
      (snd (timed (fun () -> Trace.span "probe.digest" (fun () -> Solution_digest.ci_digest a))));
  if need [ "incr.s"; "incr.resolved_procs"; "incr.reused_procs" ] then begin
    let (_, outcome), dt =
      timed (fun () ->
          Trace.span "probe.incr" (fun () ->
              Result.get_ok
                (Engine.run_incremental ~prev:(Engine.incr_snapshot a)
                   (Engine.load_string ~file:path edited))))
    in
    set "incr.s" dt;
    set "incr.resolved_procs" (float_of_int outcome.Incr_engine.o_stats.Incr_engine.st_resolved);
    set "incr.reused_procs" (float_of_int outcome.Incr_engine.o_stats.Incr_engine.st_reused)
  end;
  let sj = Mix.subject ~path text in
  let reads, handler_p50 = server_in_process rng sj edited in
  Option.iter
    (fun c -> Layers.set ~origin:"client p50 - probe handler p50" "transport.us" (c -. handler_p50))
    !client_p50_us;
  if need [ "transport.us" ] then begin
    (* synchronous round trips of the same reads through the daemon *)
    let d = Daemon.start ~exe:args.analyze_exe ~work_dir:args.work_dir "probe" in
    Fun.protect
      ~finally:(fun () -> Daemon.stop d)
      (fun () ->
        let session = Daemon.open_file d path in
        let line i r = Mix.request_line ~id:i ~session r in
        (* a warm pass fills the daemon's answer memo first *)
        Array.iteri
          (fun i r -> ignore (Client.exchange_line d.Daemon.client (line i r)))
          reads;
        let samples =
          Array.to_list
            (Array.mapi
               (fun i r ->
                 let line = line i r in
                 snd (timed (fun () -> Client.exchange_line d.Daemon.client line))
                 *. 1e6)
               reads)
        in
        set "transport.us" (median samples -. handler_p50))
  end
