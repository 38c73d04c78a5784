(* server-mix: the daemon on a private Unix socket, one client on one
   connection in a closed pipelined loop.

   Set-up generates the 13 suite programs, starts the daemon and opens
   every program exhaustively.  A round is one [update] of bc carrying a
   single-procedure edit (issued with the pipeline drained), then a
   block of reads with at most [window] in flight: every program's read
   pool once, bc's on its new session, shuffled.  An operation is one
   read or one update.

   The client times each read from its send to its reply, so latency
   includes the queueing the window implies.  Replies are compared, in
   the timed loop, only for equality with the first reply to the same
   request on the same program text; after the loop every distinct
   request is checked against an independent cold solve. *)

open Common

let n_variants = 3  (* edited texts of bc, besides the base *)

(* Requests in flight: the knee of the daemon's read rate.  Swept over
   1, 2, 4, ... 64 on seed 1 (perfbench/README.md), reads in flight per
   unit of client-observed latency (window / p50) peak at 2 in both
   directions of the sweep; one in flight makes rounds a quarter longer,
   and each window above 2 only lengthens the queue a read waits in. *)
let window = 2
let edited_program = "bc"

(* First reply per (program, session, pool index); later replies on the
   same session must match it byte for byte from the first ',' on (the
   id differs).  Sessions, not texts: a lint reply carries its checkers'
   timings, which a re-opened text recomputes. *)
type seen = { first : string; mutable count : int; mutable mismatches : int }

let payload_offset line = String.index line ',' + 1

let same_payload a b =
  let oa = payload_offset a and ob = payload_offset b in
  let n = String.length a - oa in
  n = String.length b - ob
  &&
  let rec go i = i = n || (a.[oa + i] = b.[ob + i] && go (i + 1)) in
  go 0

(* ---- independent answers ------------------------------------------------------ *)

let member k j = Option.value ~default:Ejson.Null (Ejson.member k j)

(* Location and pair lists are compared as sets: after an incremental
   update the daemon lists the same elements in another order than a
   cold solve does. *)
let as_set = function Ejson.List l -> Ejson.List (List.sort compare l) | j -> j
let set_member k j = as_set (member k j)
let strings to_s xs = as_set (Ejson.List (List.map (fun x -> Ejson.String (to_s x)) xs))
let paths = strings Apath.to_string

let int_param (r : Mix.read) k =
  match List.assoc_opt k r.Mix.params with Some (Ejson.Int n) -> Some n | _ -> None

let fun_param (r : Mix.read) =
  match List.assoc_opt "function" r.Mix.params with
  | Some (Ejson.String f) -> f
  | _ -> invalid_arg "read without a function"

type expected = {
  ex_analysis : Engine.analysis;
  ex_funs : string list;  (* defined functions, in program order *)
  ex_modref : Modref.t Lazy.t;
  ex_lint : Ejson.t Lazy.t;
  ex_purity : (string * Ejson.t) list Lazy.t;
}

let purity_class = function
  | Query.Pure -> "pure"
  | Query.Impure_writes -> "impure-writes"
  | Query.Impure_calls ext -> "impure-calls:" ^ ext

let expected_of ~path text =
  let a = Result.get_ok (Engine.run (Engine.load_string ~file:path text)) in
  let funs =
    List.filter_map
      (fun fd ->
        let f = fd.Sil.fd_name in
        if f = Sil.global_init_name then None else Some f)
      a.Engine.prog.Sil.p_functions
  in
  let purity () =
    List.map
      (fun f ->
        ( f,
          Ejson.String (purity_class (Query.classify_purity a.Engine.graph a.Engine.ci f))
        ))
      funs
  in
  {
    ex_analysis = a;
    ex_funs = funs;
    ex_modref = lazy (Modref.of_ci a.Engine.ci);
    ex_lint = lazy (Lint.to_json (Lint.run a));
    ex_purity = Lazy.from_fun purity;
  }

(* Does the daemon's [result] for read [r] agree with Query on the cold
   solve? *)
let answer_ok ex (r : Mix.read) result =
  let a = ex.ex_analysis in
  let view = Query.ci_view a.Engine.ci in
  match r.Mix.meth with
  | "may_alias" ->
    let nodes side =
      match int_param r side with
      | Some n -> [ n ]
      | None ->
        let line = Option.get (int_param r (side ^ "_line")) in
        List.filter_map
          (fun ((n : Vdg.node), _) ->
            match Vdg.loc_of a.Engine.graph n.Vdg.nid with
            | Some l when l.Srcloc.line = line -> Some n.Vdg.nid
            | _ -> None)
          (Vdg.indirect_memops a.Engine.graph)
    in
    let verdict =
      List.exists (fun x -> List.exists (Query.alias view x) (nodes "b")) (nodes "a")
    in
    member "may_alias" result = Ejson.Bool verdict
  | "points_to" ->
    let n = Option.get (int_param r "node") in
    set_member "locations" result = paths (Query.locations view n)
    && set_member "pairs" result = strings Ptpair.to_string (view.Query.nv_pairs n)
  | "modref" ->
    let m = Lazy.force ex.ex_modref and f = fun_param r in
    let ops = List.filter (fun (o : Modref.op) -> o.Modref.op_fun = f) (Modref.ops m) in
    set_member "mod" result = paths (Modref.mod_set m f)
    && set_member "ref" result = paths (Modref.ref_set m f)
    && (match member "ops" result with
       | Ejson.List got ->
         List.map (fun o -> (member "node" o, set_member "targets" o)) got
         = List.map
             (fun (o : Modref.op) -> (Ejson.Int o.Modref.op_node, paths o.Modref.op_targets))
             ops
       | _ -> false)
  | "conflicts" ->
    (* whole-program conflicts: every defined function's, in order *)
    let m = Lazy.force ex.ex_modref in
    let want =
      List.concat_map
        (fun f ->
          List.map
            (fun (c : Query.conflict) ->
              ( c.Query.cf_a.Modref.op_node,
                c.Query.cf_b.Modref.op_node,
                paths c.Query.cf_common ))
            (Query.conflicts_in m f))
        ex.ex_funs
    in
    let got =
      match member "functions" result with
      | Ejson.List fs ->
        List.concat_map
          (fun fj ->
            match member "conflicts" fj with
            | Ejson.List cs ->
              List.filter_map
                (fun c ->
                  match (member "node" (member "a" c), member "node" (member "b" c)) with
                  | Ejson.Int x, Ejson.Int y -> Some (x, y, set_member "common" c)
                  | _ -> None)
                cs
            | _ -> [])
          fs
      | _ -> []
    in
    member "count" result = Ejson.Int (List.length want) && got = want
  | "purity" ->
    let want = Lazy.force ex.ex_purity and classes = member "functions" result in
    List.length (Ejson.keys classes) = List.length want
    && List.for_all (fun (f, c) -> member f classes = c) want
  | "lint" ->
    let want = Lazy.force ex.ex_lint in
    member "diagnostics" result = member "diagnostics" want
    && member "delta" result = member "delta" want
  | m -> invalid_arg ("unexpected read " ^ m)

(* ---- the run ------------------------------------------------------------------ *)

let run (args : args) =
  let entries = Array.of_list Suite.benchmarks in
  let n = Array.length entries in
  let name i = entries.(i).Suite.profile.Profile.name in
  let files = Array.init n (fun i -> Filename.concat args.work_dir (name i ^ ".c")) in
  let bc =
    let rec find i = if name i = edited_program then i else find (i + 1) in
    find 0
  in
  (* set-up, three times; the last daemon serves the run *)
  let setups = ref [] and daemon = ref None and sessions = ref [||] in
  for _ = 1 to 3 do
    Option.iter Daemon.stop !daemon;
    let (d, ids), dt =
      timed (fun () ->
          Array.iteri (fun i e -> write_file files.(i) (Suite.source e)) entries;
          let d = Daemon.start ~exe:args.analyze_exe ~work_dir:args.work_dir "mix" in
          (d, Array.map (Daemon.open_file d) files))
    in
    setups := dt :: !setups;
    daemon := Some d;
    sessions := ids
  done;
  let d = Option.get !daemon and sessions = !sessions in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let texts = Array.map (fun p -> In_channel.with_open_bin p In_channel.input_all) files in
  let rng = Srng.create (Int64.of_int args.seed) in
  let subjects = Array.mapi (fun i t -> Mix.subject ~path:files.(i) t) texts in
  let pools = Array.map (Mix.pool rng) subjects in
  (* every round sends the same reads, every program's pool once, in an
     order each round shuffles *)
  let round_reads =
    Array.of_list
      (List.concat
         (List.init n (fun p -> List.init (Array.length pools.(p)) (fun k -> (p, k)))))
  in
  let reads_per_round = Array.length round_reads in
  let bc_texts = Array.of_list (texts.(bc) :: Mix.variants rng texts.(bc) n_variants) in
  info "server-mix: 13 programs open; %d reads per round (window %d); %d \
        edited texts of %s"
    reads_per_round window n_variants edited_program;
  let c = d.Daemon.client in
  let next_id = ref 0 in
  let fresh_id () = incr next_id; !next_id in
  let bc_state = ref 0 and round_no = ref 0 in
  (* bc's session changes every round; other programs keep epoch 0 *)
  let epoch_state = Hashtbl.create 64 in
  Hashtbl.replace epoch_state 0 0;
  let seen : (int * int * int, seen) Hashtbl.t = Hashtbl.create 8192 in
  let updates = ref [] and update_times = ref [] in
  let latencies = ref [] and read_time = ref 0. and n_reads = ref 0 in
  let by_meth = Hashtbl.create 8 in
  let note key line =
    match Hashtbl.find_opt seen key with
    | None -> Hashtbl.replace seen key { first = line; count = 1; mismatches = 0 }
    | Some s ->
      s.count <- s.count + 1;
      if not (same_payload s.first line) then s.mismatches <- s.mismatches + 1
  in
  let round () =
    let r = !round_no in
    incr round_no;
    let next = if !bc_state = 0 then 1 + (r / 2 mod n_variants) else 0 in
    let line =
      Protocol.request_line ~id:(fresh_id ()) ~meth:"update"
        ~params:
          (Ejson.Assoc
             [ ("file", Ejson.String files.(bc)); ("source", Ejson.String bc_texts.(next)) ])
        ()
    in
    let reply, dt =
      Trace.span "update" (fun () ->
          timed (fun () ->
              Client.send_line c line;
              Client.recv_line c))
    in
    update_times := dt :: !update_times;
    (match Protocol.response_of_line reply with
    | Ok { Protocol.rs_result = Ok res; _ } ->
      sessions.(bc) <- Daemon.session_of res;
      updates := (next, Ejson.member "solution_digest" res) :: !updates
    | _ ->
      check_failed "server-mix: update failed: %s" reply;
      updates := (next, None) :: !updates);
    bc_state := next;
    Hashtbl.replace epoch_state (r + 1) next;
    let rng = Srng.create (Int64.of_int ((args.seed * 1_000_003) + r)) in
    let pending = Queue.create () in
    let drain_one () =
      let ((p, _, k) as key), t0 = Queue.pop pending in
      let line = Client.recv_line c in
      let dt = now () -. t0 in
      latencies := dt :: !latencies;
      let m = pools.(p).(k).Mix.meth in
      Hashtbl.replace by_meth m (dt :: Option.value ~default:[] (Hashtbl.find_opt by_meth m));
      note key line
    in
    let (), dt =
      Trace.span "reads" (fun () ->
          timed (fun () ->
              Srng.shuffle rng round_reads;
              Array.iter
                (fun (p, k) ->
                  if Queue.length pending >= window then drain_one ();
                  let line =
                    Mix.request_line ~id:(fresh_id ()) ~session:sessions.(p) pools.(p).(k)
                  in
                  Client.send_line c line;
                  Queue.add ((p, (if p = bc then r + 1 else 0), k), now ()) pending)
                round_reads;
              while not (Queue.is_empty pending) do
                drain_one ()
              done))
    in
    read_time := !read_time +. dt;
    n_reads := !n_reads + reads_per_round
  in
  let loop seconds =
    let times = ref [] in
    let t_start = now () in
    while now () -. t_start < seconds || List.length !times < 2 do
      let (), dt = timed (fun () -> Trace.span "round" round) in
      times := dt :: !times
    done;
    !times
  in
  let times = Layers.measure args loop in
  let peak = peak_rss_mb (string_of_int d.Daemon.pid) in
  let read_p50 = median !latencies in
  Probes.client_p50_us := Some (read_p50 *. 1e6);
  (* independent checks: every distinct read against a cold solve of the
     same text, every update's digest against that solve's ci_digest *)
  let cold = Hashtbl.create 16 in
  let expected p state =
    match Hashtbl.find_opt cold (p, state) with
    | Some ex -> ex
    | None ->
      let text = if p = bc then bc_texts.(state) else texts.(p) in
      let ex = expected_of ~path:files.(p) text in
      Hashtbl.replace cold (p, state) ex;
      ex
  in
  let failed_reads = ref 0 and checked = ref 0 in
  Hashtbl.iter
    (fun (p, epoch, k) s ->
      incr checked;
      let state = Hashtbl.find epoch_state epoch in
      let read = pools.(p).(k) in
      let ok =
        match Protocol.response_of_line s.first with
        | Ok { Protocol.rs_result = Ok res; _ } -> answer_ok (expected p state) read res
        | _ -> false
      in
      if not ok then begin
        failed_reads := !failed_reads + s.count;
        check_failed "server-mix: %s on %s differs from a cold solve: %s" read.Mix.meth
          (name p) s.first
      end
      else if s.mismatches > 0 then begin
        failed_reads := !failed_reads + s.mismatches;
        check_failed "server-mix: %d replies to one %s on %s changed" s.mismatches
          read.Mix.meth (name p)
      end)
    seen;
  let digests = Hashtbl.create 4 in
  let failed_updates =
    List.length
      (List.filter
         (fun (state, got) ->
           let want =
             match Hashtbl.find_opt digests state with
             | Some w -> w
             | None ->
               let w = Solution_digest.ci_digest (expected bc state).ex_analysis in
               Hashtbl.replace digests state w;
               w
           in
           got <> Some (Ejson.String want)
           && (check_failed "server-mix: update to text %d of bc: solution_digest \
                             differs from a cold ci_digest" state;
               true))
         !updates)
  in
  info "checks: %d distinct reads on %d program texts match a cold solve; %d \
        update digests match cold ci_digests"
    !checked (Hashtbl.length cold)
    (List.length !updates - failed_updates);
  let update_ms = 1000. *. median !update_times in
  info "reads: %d, p50 %.1f us%s; updates: %d, median %.1f ms; rounds: median %.3f s"
    !n_reads (read_p50 *. 1e6)
    (match tail !latencies with
    | Some (p, v) ->
      Printf.sprintf ", p%g %.1f us over %d samples" p (v *. 1e6) !n_reads
    | None -> "")
    (List.length !update_times) update_ms (median times);
  Hashtbl.iter
    (fun m xs ->
      info "  %-10s %6d reads, p50 %8.1f us, p90 %8.1f us" m (List.length xs)
        (median xs *. 1e6) (quantile xs 0.9 *. 1e6))
    by_meth;
  {
    attempted = !n_reads + List.length !updates;
    failed = !failed_reads + failed_updates;
    metrics =
      [
        metric "setup_s" "s" (median !setups);
        metric "round_s" "s" (median times);
        metric "read_p50_ms" "ms" (1000. *. read_p50);
        metric "reads_per_s" "1/s" (float_of_int !n_reads /. !read_time);
        metric "peak_rss_mb" "MB" peak;
      ];
  }
