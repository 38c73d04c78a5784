(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent): [span name f] times [f] and
   files it under the innermost open span of the calling domain.  Spans
   stay in memory until the run ends, when [write_json] dumps them and
   [self_times] folds them into per-name self time (duration minus the
   part of the interval covered by child spans).  With tracing off,
   [span] is a plain call: the untraced run pays one branch per call.

   Counters ride along: [count] adds to a named total.  Layer counters
   (Gc words, solver counts) are taken by the caller at the same
   boundaries the spans mark, so ratios are measured where the work
   happens. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_start : float;
  sp_stop : float;
  sp_parent : int;  (* -1 for a root span *)
}

let enabled = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

(* Spans may be opened from several domains (linux-cold runs each
   repetition on a fresh one); each keeps its own parent stack. *)
let stack_key : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let span name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parents = Domain.DLS.get stack_key in
    let parent = match parents with p :: _ -> p | [] -> -1 in
    Domain.DLS.set stack_key (id :: parents);
    let t0 = Common.now () in
    let finish () =
      let t1 = Common.now () in
      Domain.DLS.set stack_key parents;
      Mutex.protect lock (fun () ->
          spans :=
            { sp_id = id; sp_name = name; sp_start = t0; sp_stop = t1;
              sp_parent = parent }
            :: !spans)
    in
    Fun.protect ~finally:finish f
  end

let count name v =
  if !enabled then
    Mutex.protect lock (fun () ->
        Hashtbl.replace counters name
          (v +. Option.value ~default:0. (Hashtbl.find_opt counters name)))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

(* Minor-heap words allocated by [f] on the calling domain, in millions,
   added to counter [name]; Gc.minor_words is per-domain in OCaml 5. *)
let minor_mwords name f =
  if not !enabled then f ()
  else begin
    let w0 = Gc.minor_words () in
    let v = f () in
    count name ((Gc.minor_words () -. w0) /. 1e6);
    v
  end

let all () = Mutex.protect lock (fun () -> List.rev !spans)

(* Self time per span: duration minus the union of its children's
   intervals.  Children of one parent never overlap on one domain, so
   the union is their sum. *)
let self_times () =
  let spans = all () in
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child_time s.sp_parent
          (s.sp_stop -. s.sp_start
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.sp_parent)))
    spans;
  List.map
    (fun s ->
      ( s,
        s.sp_stop -. s.sp_start
        -. Option.value ~default:0. (Hashtbl.find_opt child_time s.sp_id) ))
    spans

(* Per name: (calls, total self seconds), in first-seen order. *)
let self_by_name () =
  let order = ref [] and tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.sp_name with
      | Some (n, t) -> Hashtbl.replace tbl s.sp_name (n + 1, t +. self)
      | None ->
        order := s.sp_name :: !order;
        Hashtbl.replace tbl s.sp_name (1, self))
    (self_times ());
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let write_json path =
  let spans = all () in
  let t0 = match spans with s :: _ -> s.sp_start | [] -> 0. in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f,\"parent\":%d}\n"
            (if i = 0 then " " else ",")
            s.sp_id s.sp_name
            ((s.sp_start -. t0) *. 1e6)
            ((s.sp_stop -. t0) *. 1e6)
            s.sp_parent)
        spans;
      output_string oc "]\n")
