(* perfbench: the OCaml half of the benchmark (perfbench/run.py is the
   other half, which builds, starts and stops the daemon, and turns the
   records written here into metrics).

     perfbench workloads
       the workloads and the reason each exists, as JSON
     perfbench gen --workload W --seed S --seconds T
       the request lines a run replays
     perfbench answer
       request lines on stdin -> the engine's reply to each on stdout
     perfbench verify REQUESTS REPLIES
       check replies against the engine, field for field; exit 1 on
       any wrong answer
     perfbench run --workload W --seed S --seconds T --socket PATH
                   --pid PID --trace 0|1 --out FILE [--memo FILE]
       replay against a live daemon, read its CPU and RSS from /proc,
       check every answer, and write per-request records to FILE;
       with --memo, an untraced run takes the engine's answers from
       FILE where it has them and adds the ones it computes, so the
       replays of one stream pay for each engine call once *)

module Json = Commx_util.Json
module Clock = Commx_util.Clock

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let rec flags acc = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      flags ((String.sub k 2 (String.length k - 2), v) :: acc) rest
  | [] -> acc
  | x :: _ -> die "unexpected argument %S" x

let flag fs k =
  match List.assoc_opt k fs with Some v -> v | None -> die "missing --%s" k

let workload fs =
  let name = flag fs "workload" in
  match Workload.find name with Some w -> w | None -> die "unknown workload %S" name

let stream fs =
  let w = workload fs in
  let seed = int_of_string (flag fs "seed") in
  let seconds = float_of_string (flag fs "seconds") in
  (w, seconds, Workload.stream w ~seed ~seconds)

let read_lines ic =
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Engine answers                                                      *)
(* ------------------------------------------------------------------ *)

(* Run the mirror over [lines] on at most two domains, each with its
   own table, split by hash as the daemon splits requests between its
   two workers. *)
let answer_all lines =
  let n = Array.length lines in
  let jobs = min 2 (max 1 n) in
  let out = Array.make n None in
  let part d () =
    let w = Mirror.worker () in
    for i = 0 to n - 1 do
      if Hashtbl.hash lines.(i) mod jobs = d then out.(i) <- Some (Mirror.answer w lines.(i))
    done
  in
  let ds = List.init (jobs - 1) (fun d -> Domain.spawn (part (d + 1))) in
  part 0 ();
  List.iter Domain.join ds;
  Array.map Option.get out

(* Memo lines: request body, tab, op, tab, the cacheable fields. *)
let load_memo path =
  let memo = Hashtbl.create 4096 in
  if Sys.file_exists path then
    List.iter
      (fun l ->
        match String.split_on_char '\t' l with
        | [ body; op; core ] ->
            let core =
              match Json.of_string core with Json.Obj kv -> kv | _ -> die "bad memo line in %s" path
            in
            Hashtbl.replace memo body { Mirror.op; core; extra = []; spans = [] }
        | _ -> die "bad memo line in %s" path)
      (In_channel.with_open_bin path read_lines);
  memo

let save_memo path bodies (answers : Mirror.answer array) =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644 path (fun oc ->
      Array.iteri
        (fun i (a : Mirror.answer) ->
          Printf.fprintf oc "%s\t%s\t%s\n" bodies.(i) a.op (Json.to_string (Json.Obj a.core)))
        answers)

let engine_reply (a : Mirror.answer) =
  Json.to_string (Json.Obj (("op", Json.String a.op) :: ("ok", Json.Bool true) :: a.core))

(* ------------------------------------------------------------------ *)
(* /proc readings of the daemon                                        *)
(* ------------------------------------------------------------------ *)

let slurp path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime in clock ticks, all threads, from /proc/PID/stat. *)
let cpu_ticks pid =
  let s = slurp (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  int_of_string f.(11) + int_of_string f.(12)

(* (steal, total) jiffies of the whole machine, from /proc/stat: other
   tenants of a virtual machine's host show up as steal, and every
   wall-clock metric moves with it. *)
let steal_jiffies () =
  let line = List.hd (String.split_on_char '\n' (slurp "/proc/stat")) in
  let f =
    List.filter_map int_of_string_opt (List.tl (String.split_on_char ' ' line))
  in
  (List.nth f 7, List.fold_left ( + ) 0 f)

let vm_hwm_kb pid =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (slurp (Printf.sprintf "/proc/%d/status" pid)))
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id

(* ------------------------------------------------------------------ *)
(* Daemon spans from dump_trace                                        *)
(* ------------------------------------------------------------------ *)

(* Request id -> (request, queue_wait, exec, reply_write) durations in
   ns, from the flight-recorder dumps of a traced run. *)
let daemon_spans dumps =
  let by_id = Hashtbl.create 4096 in
  List.iter
    (fun raw ->
      let events =
        match Json.member "trace" (Json.of_string raw) with
        | Some t -> (match Json.member "traceEvents" t with Some (Json.List l) -> l | _ -> [])
        | None -> []
      in
      let num k e = match Json.member k e with Some (Json.Float f) -> f | Some (Json.Int i) -> float_of_int i | _ -> 0.0 in
      let arg k e = Option.bind (Json.member "args" e) (Json.member k) in
      let roots = Hashtbl.create 512 and kids = Hashtbl.create 2048 in
      List.iter
        (fun e ->
          match (arg "span" e, arg "parent" e) with
          | Some (Json.Int s), Some (Json.Int 0) -> Hashtbl.replace roots s e
          | Some _, Some (Json.Int p) -> Hashtbl.add kids p e
          | _ -> ())
        events;
      Hashtbl.iter
        (fun s root ->
          match arg "id" root with
          | Some (Json.String id) ->
              let dur e = int_of_float (num "dur" e *. 1000.0) in
              let child name =
                List.fold_left
                  (fun acc e ->
                    match Json.member "name" e with
                    | Some (Json.String n) when List.mem n name -> acc + dur e
                    | _ -> acc)
                  0 (Hashtbl.find_all kids s)
              in
              Hashtbl.replace by_id id
                ( dur root,
                  child [ "queue_wait" ],
                  child [ "exec"; "search"; "cache_hit"; "shed" ],
                  child [ "reply_write" ] )
          | _ -> ())
        roots)
    dumps;
  by_id

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let jint i = Json.Int i
let jcol f n = Json.List (List.init n f)

let run fs =
  let w, seconds, reqs = stream fs in
  let socket = flag fs "socket" and pid = int_of_string (flag fs "pid") in
  let trace = flag fs "trace" = "1" in
  let hwm = ref 0 in
  let cpu0 = cpu_ticks pid and steal0, total0 = steal_jiffies () in
  let r = Replay.run w ~socket ~seconds ~trace ~probe:(fun () -> hwm := vm_hwm_kb pid) reqs in
  let cpu1 = cpu_ticks pid and steal1, total1 = steal_jiffies () in
  (* Everything below runs after the measured window. *)
  let n = r.Replay.sent in
  let parsed =
    Array.init n (fun i ->
        if r.Replay.recv_ns.(i) < 0 then None else Some (Json.of_string r.Replay.replies.(i)))
  in
  let status i =
    match parsed.(i) with
    | None -> "lost"
    | Some j -> (
        match Json.member "ok" j with
        | Some (Json.Bool true) -> "ok"
        | _ -> Option.value (Commx_serve.Wire.error_code j) ~default:"error")
  in
  (* One engine call per distinct answered body. *)
  let rep = Array.make n (-1) and reps = Hashtbl.create 4096 and order = ref [] in
  for i = 0 to n - 1 do
    if status i = "ok" then begin
      let b = reqs.(i).Workload.body in
      match Hashtbl.find_opt reps b with
      | Some k -> rep.(i) <- k
      | None ->
          let k = Hashtbl.length reps in
          Hashtbl.add reps b k;
          order := i :: !order;
          rep.(i) <- k
    end
  done;
  let firsts = Array.of_list (List.rev !order) in
  let t_mirror = Clock.now_s () in
  let body i = reqs.(i).Workload.body in
  let answers =
    match List.assoc_opt "memo" fs with
    | Some path when not trace ->
        let memo = load_memo path in
        let fresh = List.filter (fun i -> not (Hashtbl.mem memo (body i))) (Array.to_list firsts) in
        let fresh = Array.of_list fresh in
        let computed = answer_all (Array.map (fun i -> reqs.(i).Workload.line) fresh) in
        save_memo path (Array.map body fresh) computed;
        Array.iteri (fun k i -> Hashtbl.replace memo (body i) computed.(k)) fresh;
        Array.map (fun i -> Hashtbl.find memo (body i)) firsts
    | _ -> answer_all (Array.map (fun i -> reqs.(i).Workload.line) firsts)
  in
  let mirror_s = Clock.now_s () -. t_mirror in
  let mismatches = ref [] in
  for i = n - 1 downto 0 do
    match parsed.(i) with
    | Some reply when rep.(i) >= 0 -> (
        match Mirror.check answers.(rep.(i)) reply with
        | None -> ()
        | Some why -> mismatches := Json.Obj [ ("i", jint i); ("why", Json.String why) ] :: !mismatches)
    | _ -> ()
  done;
  let spans = daemon_spans r.Replay.dumps in
  let dspan i k =
    match Hashtbl.find_opt spans (string_of_int i) with
    | Some (a, b, c, d) -> [| a; b; c; d |].(k)
    | None -> -1
  in
  let rint i k =
    match Option.bind parsed.(i) (Json.member k) with Some (Json.Int v) -> v | _ -> -1
  in
  let rstr i k =
    match Option.bind parsed.(i) (Json.member k) with Some (Json.String v) -> v | _ -> ""
  in
  (* How long after its connection's previous reply each request went
     out: the load generator's own turnaround. *)
  let prev_recv = Array.make Replay.conns (-1) in
  let lag =
    Array.init n (fun i ->
        let c = r.Replay.conn_of.(i) in
        let l = if prev_recv.(c) < 0 then 0 else r.Replay.sent_ns.(i) - prev_recv.(c) in
        prev_recv.(c) <- r.Replay.recv_ns.(i);
        l)
  in
  let span_json (s : Mirror.span) =
    Json.List [ Json.String s.name; Json.String s.parent; jint s.dur_ns ]
  in
  let doc =
    Json.Obj
      [ ("workload", Json.String w.name);
        ("trace", Json.Bool trace);
        ("generated", jint (Array.length reqs));
        ("sent", jint n);
        ("refused", jint r.Replay.refused);
        ("seconds", Json.Float seconds);
        ("wall_ns", jint r.Replay.wall_ns);
        ("cpu_ticks", jint (cpu1 - cpu0));
        ("vm_hwm_kb", jint !hwm);
        ( "steal_share",
          Json.Float
            (float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0))) );
        ("mirror_s", Json.Float mirror_s);
        ("dumps", jint (List.length r.Replay.dumps));
        ( "stats",
          match r.Replay.stats with "null" -> Json.Null | s -> Json.of_string s );
        ( "requests",
          Json.Obj
            [ ("op", jcol (fun i -> Json.String reqs.(i).Workload.op) n);
              ("status", jcol (fun i -> Json.String (status i)) n);
              ( "lat_ns",
                jcol (fun i -> jint (if r.Replay.recv_ns.(i) < 0 then -1 else r.Replay.recv_ns.(i) - r.Replay.sent_ns.(i))) n );
              ("recv_ns", jcol (fun i -> jint r.Replay.recv_ns.(i)) n);
              ("lag_ns", jcol (fun i -> jint lag.(i)) n);
              ("req_bytes", jcol (fun i -> jint (String.length reqs.(i).Workload.line)) n);
              ( "reply_bytes",
                jcol (fun i -> jint (if parsed.(i) = None then 0 else String.length r.Replay.replies.(i) + 1)) n );
              ("wall_us", jcol (fun i -> jint (rint i "wall_us")) n);
              ("cache", jcol (fun i -> Json.String (rstr i "cache")) n);
              ("rep", jcol (fun i -> jint rep.(i)) n);
              ("d_request_ns", jcol (fun i -> jint (dspan i 0)) n);
              ("d_queue_ns", jcol (fun i -> jint (dspan i 1)) n);
              ("d_exec_ns", jcol (fun i -> jint (dspan i 2)) n);
              ("d_write_ns", jcol (fun i -> jint (dspan i 3)) n) ] );
        ( "answers",
          Json.List
            (Array.to_list
               (Array.map
                  (fun (a : Mirror.answer) ->
                    Json.Obj
                      (("op", Json.String a.op)
                      :: ("spans", Json.List (List.map span_json a.spans))
                      :: List.filter (fun (k, _) -> k = "bits") a.core
                      @ List.filter (fun (k, _) -> k = "nodes") a.extra))
                  answers)) );
        ("mismatches", Json.List !mismatches) ]
  in
  Json.to_file ~path:(flag fs "out") doc;
  if !mismatches <> [] then begin
    Printf.eprintf "perfbench: %d wrong answer(s); first: %s\n" (List.length !mismatches)
      (Json.to_string (List.hd !mismatches));
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "workloads" ] ->
      print_endline
        (Json.to_string
           (Json.List
              (List.map
                 (fun (w : Workload.t) ->
                   Json.Obj [ ("name", Json.String w.name); ("why", Json.String w.why) ])
                 Workload.all)))
  | "gen" :: rest ->
      let _, _, reqs = stream (flags [] rest) in
      Array.iter (fun (r : Workload.request) -> print_string r.line) reqs
  | [ "answer" ] ->
      Array.iter
        (fun a -> print_endline (engine_reply a))
        (answer_all (Array.of_list (read_lines stdin)))
  | [ "verify"; requests; replies ] ->
      let reqs = Array.of_list (In_channel.with_open_bin requests read_lines) in
      let reps = Array.of_list (In_channel.with_open_bin replies read_lines) in
      if Array.length reqs <> Array.length reps then die "%d requests but %d replies" (Array.length reqs) (Array.length reps);
      let answers = answer_all reqs in
      let bad = ref 0 in
      Array.iteri
        (fun i a ->
          match Mirror.check a (Json.of_string reps.(i)) with
          | None -> ()
          | Some why ->
              incr bad;
              Printf.printf "line %d: %s\n" (i + 1) why)
        answers;
      if !bad > 0 then exit 1
  | "run" :: rest -> run (flags [] rest)
  | _ ->
      prerr_endline
        "usage: perfbench (workloads | gen | answer | verify REQUESTS REPLIES | run) [--flag value ...]";
      exit 2
