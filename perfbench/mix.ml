(* The read mix and the edits of server-mix, shared with the probes that
   time the server layers in process.

   A read is a method plus parameters without the session id, which the
   client binds at send time.  Reads come from a fixed pool per program,
   so the distinct requests a run makes stay bounded and each can be
   checked against an independent solve.  Node ids and memop
   lines come from a local build of the same text. *)

type read = { meth : string; params : (string * Ejson.t) list }

type subject = {
  sj_path : string;
  sj_nodes : int array;  (* every memory operation's VDG node *)
  sj_lines : int array;  (* source lines holding an indirect memop *)
  sj_funs : string array;  (* defined functions *)
}

let subject ~path text =
  let prog = Engine.compile (Engine.load_string ~file:path text) in
  let graph = Engine.build_graph prog in
  let memop_nodes = List.map (fun ((n : Vdg.node), _) -> n.Vdg.nid) (Vdg.memops graph) in
  let lines =
    List.sort_uniq compare
      (List.filter_map
         (fun ((n : Vdg.node), _) ->
           Option.map (fun (l : Srcloc.t) -> l.Srcloc.line) (Vdg.loc_of graph n.Vdg.nid))
         (Vdg.indirect_memops graph))
  in
  let funs =
    List.filter_map
      (fun fd ->
        let name = fd.Sil.fd_name in
        if name = Sil.global_init_name then None else Some name)
      prog.Sil.p_functions
  in
  {
    sj_path = path;
    sj_nodes = Array.of_list memop_nodes;
    sj_lines = Array.of_list lines;
    sj_funs = Array.of_list funs;
  }

(* How many reads of each kind a pool holds: the read proportions of
   the repo's daemon load generator, bench/load.ml (of its 100-slot die,
   may_alias 45, points_to 15, modref 12, conflicts 10, purity 6, lint
   3; its other nine slots re-open files or ask for stats, which are not
   reads).  load.ml keys every may_alias by node; the protocol also
   takes source lines, so the 45 are split evenly between the two keys.
   Like load.ml, modref names one function and conflicts covers the
   whole program.  The counts are exact, not drawn, so every seed sends
   the same mix and only the parameters differ: a drawn mix moved the
   share of the costly lint answers by a third from seed to seed. *)
let mix =
  [
    ("may_alias", 23); ("may_alias_line", 22); ("points_to", 15); ("modref", 12);
    ("conflicts", 10); ("purity", 6); ("lint", 3);
  ]

let make rng sj kind =
  let node () = Ejson.Int (Srng.pick rng sj.sj_nodes) in
  let fn () = Ejson.String (Srng.pick rng sj.sj_funs) in
  match kind with
  | "may_alias_line" when Array.length sj.sj_lines > 0 ->
    let line () = Ejson.Int (Srng.pick rng sj.sj_lines) in
    { meth = "may_alias"; params = [ ("a_line", line ()); ("b_line", line ()) ] }
  | "may_alias" | "may_alias_line" ->
    { meth = "may_alias"; params = [ ("a", node ()); ("b", node ()) ] }
  | "points_to" -> { meth = "points_to"; params = [ ("node", node ()) ] }
  | "modref" -> { meth = "modref"; params = [ ("function", fn ()) ] }
  | "conflicts" -> { meth = "conflicts"; params = [] }
  | "purity" -> { meth = "purity"; params = [] }
  | _ -> { meth = "lint"; params = [] }

(* The 91 reads of one program, parameters drawn from [rng]. *)
let pool rng sj =
  Array.of_list
    (List.concat_map (fun (kind, n) -> List.init n (fun _ -> make rng sj kind)) mix)

let request_line ~id ~session r =
  Protocol.request_line ~id ~meth:r.meth
    ~params:(Ejson.Assoc (("session", Ejson.String session) :: r.params))
    ()

(* ---- edits ------------------------------------------------------------------- *)

(* Single-procedure edits: each variant changes one integer constant of
   one statement, so exactly one procedure's digest changes while the
   VDG keeps its shape (node ids stay valid across the edit).  Sites are
   the generator's "x + N);" statements, chosen by the seed. *)
let is_site l =
  let l = String.trim l in
  let n = String.length l in
  n > 4
  && String.ends_with ~suffix:");" l
  && String.contains l '+'
  && (not (String.contains l '"'))
  &&
  match String.rindex_opt l ' ' with
  | Some j when j + 1 < n - 2 ->
    String.for_all (fun c -> c >= '0' && c <= '9') (String.sub l (j + 1) (n - j - 3))
  | _ -> false

let edit_sites text =
  List.concat
    (List.mapi (fun i l -> if is_site l then [ i ] else [])
       (String.split_on_char '\n' text))

let edit_line text line_no delta =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let l = lines.(line_no) in
  let stop = String.rindex l ')' in
  let start = String.rindex_from l (stop - 1) ' ' + 1 in
  let v = int_of_string (String.sub l start (stop - start)) in
  lines.(line_no) <-
    String.sub l 0 start ^ string_of_int (v + delta)
    ^ String.sub l stop (String.length l - stop);
  String.concat "\n" (Array.to_list lines)

(* [k] edited variants of [text]; distinct sites, chosen by [rng]. *)
let variants rng text k =
  let sites = Array.of_list (edit_sites text) in
  if Array.length sites < k then failwith "too few edit sites";
  Srng.shuffle rng sites;
  List.init k (fun i -> edit_line text sites.(i) (i + 1))
