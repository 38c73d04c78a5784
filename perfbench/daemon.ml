(* The query daemon under test, as a child process: [analyze serve] on a
   private Unix socket inside the work directory, without the engine's
   disk cache, so every open solves.  Every daemon started is shut down
   and reaped before the benchmark exits, also on a failure path. *)

type t = { pid : int; socket : string; client : Client.t }

let live : int list ref = ref []

let reap pid =
  (* [shutdown] joins the worker pool and removes the socket; give it a
     bounded while before killing *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let start ~exe ~work_dir name =
  let socket = Filename.concat work_dir (name ^ ".sock") in
  (try Sys.remove socket with Sys_error _ -> ());
  let log =
    Unix.openfile (Filename.concat work_dir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close null)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--socket"; socket; "--no-cache" |]
          null null log)
  in
  live := pid :: !live;
  let client = Client.connect ~retry_for:60. ~timeout:300. socket in
  { pid; socket; client }

let call t meth params =
  match Client.call t.client ~meth ~params with
  | Ok v -> v
  | Error (_, msg) -> failwith (Printf.sprintf "daemon %s: %s" meth msg)

let session_of json =
  match Ejson.member "session" json with
  | Some (Ejson.String s) -> s
  | _ -> failwith "daemon: reply carries no session id"

let open_file t path =
  session_of (call t "open" (Ejson.Assoc [ ("file", Ejson.String path) ]))

let stop t =
  (try ignore (Client.call t.client ~meth:"shutdown" ~params:Ejson.Null)
   with _ -> ());
  Client.close t.client;
  reap t.pid
