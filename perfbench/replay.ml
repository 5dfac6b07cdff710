(* The load generator: one thread and [conns] connections to a live
   daemon, driven by select, in a closed loop: each connection keeps
   one request in flight and sends the next the moment a reply arrives,
   until the measured window closes.  Latency runs from the write to
   the reply.

   Traced runs also ask for the daemon's flight recorder every
   [dump_every] requests and once more at the end: its ring holds the
   last 256 requests' spans, so polling more often than that keeps
   every request covered. *)

module Clock = Commx_util.Clock

let conns = 2
let dump_every = 192
let drain_limit_s = 60.0

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  inflight : int Queue.t;  (** request indices, or -1 for a control op *)
}

type result = {
  wall_ns : int;  (** start of the window to the last reply *)
  sent : int;
  refused : int;
  sent_ns : int array;
  recv_ns : int array;  (** -1: no reply *)
  conn_of : int array;
  replies : string array;
  dumps : string list;  (** raw [dump_trace] replies, oldest first *)
  stats : string;  (** raw [stats] reply after the window *)
}

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some { fd; rbuf = Buffer.create 65536; inflight = Queue.create () }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Complete lines read from [c]; [None] once the daemon hangs up. *)
let read_lines c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> None
  | n ->
      Buffer.add_subbytes c.rbuf chunk 0 n;
      let s = Buffer.contents c.rbuf in
      let parts = String.split_on_char '\n' s in
      let rec split acc = function
        | [ rest ] ->
            Buffer.clear c.rbuf;
            Buffer.add_string c.rbuf rest;
            List.rev acc
        | l :: tl -> split (l :: acc) tl
        | [] -> List.rev acc
      in
      Some (split [] parts)
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> None

let request_blocking c line =
  write_all c.fd line;
  let rec wait () =
    match read_lines c with
    | None -> failwith "perfbench: daemon closed the connection"
    | Some [] -> wait ()
    | Some (l :: _) -> l
  in
  wait ()

(* [probe] runs once, when the [w.rss_after]-th reply is in (or at the
   end of a run that gets fewer). *)
let run (w : Workload.t) ~socket ~seconds ~trace ~probe (reqs : Workload.request array) =
  let n = Array.length reqs in
  let sent_ns = Array.make n (-1)
  and recv_ns = Array.make n (-1)
  and conn_of = Array.make n (-1)
  and replies = Array.make n "" in
  let cs = Array.of_list (List.filter_map (fun _ -> connect socket) (List.init conns Fun.id)) in
  let refused = conns - Array.length cs in
  let dumps = ref [] in
  let next = ref 0 and since_dump = ref 0 and answered = ref 0 in
  let start_ns = Clock.now_ns () in
  let deadline_ns = start_ns + int_of_float (seconds *. 1e9) in
  let hard_stop_ns = deadline_ns + int_of_float (drain_limit_s *. 1e9) in
  (* The connection that just answered sends again. *)
  let refill ci =
    let c = cs.(ci) in
    if Clock.now_ns () < deadline_ns && !next < n then
      if trace && ci = 0 && !since_dump >= dump_every then begin
        since_dump := 0;
        Queue.push (-1) c.inflight;
        write_all c.fd "{\"op\":\"dump_trace\"}\n"
      end
      else begin
        let i = !next in
        incr next;
        conn_of.(i) <- ci;
        sent_ns.(i) <- Clock.now_ns () - start_ns;
        Queue.push i c.inflight;
        write_all c.fd reqs.(i).Workload.line
      end
  in
  let inflight () = Array.exists (fun c -> not (Queue.is_empty c.inflight)) cs in
  Array.iteri (fun ci _ -> refill ci) cs;
  while inflight () && Clock.now_ns () < hard_stop_ns do
    let fds = Array.to_list (Array.map (fun c -> c.fd) cs) in
    let timeout = float_of_int (hard_stop_ns - Clock.now_ns ()) /. 1e9 in
    let ready, _, _ =
      try Unix.select fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iteri
      (fun ci c ->
        if List.mem c.fd ready then
          match read_lines c with
          | None ->
              (* The daemon hung up: what is in flight here stays
                 unanswered. *)
              Queue.clear c.inflight
          | Some lines ->
              List.iter
                (fun line ->
                  match Queue.take_opt c.inflight with
                  | Some -1 -> dumps := line :: !dumps
                  | Some i ->
                      recv_ns.(i) <- Clock.now_ns () - start_ns;
                      replies.(i) <- line;
                      incr answered;
                      incr since_dump;
                      if !answered = w.rss_after then probe ()
                  | None -> ())
                lines;
              if lines <> [] && Queue.is_empty c.inflight then refill ci)
      cs
  done;
  if !answered < w.rss_after then probe ();
  let quiet = Array.length cs > 0 && not (inflight ()) in
  if quiet && trace then
    dumps := request_blocking cs.(0) "{\"op\":\"dump_trace\"}\n" :: !dumps;
  let stats = if quiet then request_blocking cs.(0) "{\"op\":\"stats\"}\n" else "null" in
  Array.iter (fun c -> Unix.close c.fd) cs;
  { wall_ns = Array.fold_left max 0 recv_ns; sent = !next; refused; sent_ns; recv_ns;
    conn_of; replies; dumps = List.rev !dumps; stats }
