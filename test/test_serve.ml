(* Tests for the serve daemon: wire codec, result cache + tag registry,
   and in-process end-to-end runs over a real Unix socket — warm-cache
   semantics, reply ordering, broken-pipe survival, snapshot
   persistence across a restart, stats percentiles, and the
   self-healing tier: request deadlines, worker crash isolation +
   respawn, admission-control shedding, oversized-line recovery,
   periodic snapshots and the resilient client. *)

module Json = Commx_util.Json
module Bm = Commx_util.Bitmat
module Clock = Commx_util.Clock
module Faults = Commx_util.Faults
module Telemetry = Commx_util.Telemetry
module Logging = Commx_util.Logging
module Obs = Commx_serve.Obs
module Wire = Commx_serve.Wire
module Ops = Commx_serve.Ops
module Cache = Commx_serve.Cache
module Server = Commx_serve.Server
module Client = Commx_serve.Client

(* The reference board: 8x8, rows as bit patterns.  A GF(2) rank-4
   product, so the whole certified lower-bound portfolio (rank/fooling,
   rational log-rank, discrepancy) stays below the trivial upper bound
   and a cold query really expands nodes (~284) — which is what makes
   warm-vs-cold observable.  Exact CC = 4. *)
let board_rows = [| 26; 233; 0; 245; 0; 239; 239; 233 |]

let board_json =
  Json.List
    (Array.to_list
       (Array.map
          (fun r ->
            Json.String
              (String.init 8 (fun j -> if r land (1 lsl j) <> 0 then '1' else '0')))
          board_rows))

(* A slow board: 10x10 of GF(2) rank 4 whose certified bounds do NOT
   close the search — the full exact search expands ~175k nodes
   (seconds of wall time), so a request deadline of tens of
   milliseconds reliably interrupts it mid-search.  Found by scanning
   random low-rank products. *)
let slow_board_json =
  Json.List
    (List.map
       (fun s -> Json.String s)
       [ "0101010111"; "0100011100"; "0000101100"; "0100110000";
         "0001001011"; "0011111010"; "0111100110"; "0101010111";
         "0000000000"; "0001100111" ])

let obj_field reply key =
  match Json.member key reply with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks field %S: %s" key (Json.to_string reply)

let int_field reply key =
  match obj_field reply key with
  | Json.Int v -> v
  | _ -> Alcotest.failf "field %S is not an int" key

let float_field reply key =
  match obj_field reply key with
  | Json.Float v -> v
  | Json.Int v -> float_of_int v
  | _ -> Alcotest.failf "field %S is not a number" key

let string_field reply key =
  match obj_field reply key with
  | Json.String s -> s
  | _ -> Alcotest.failf "field %S is not a string" key

let assert_ok reply =
  match obj_field reply "ok" with
  | Json.Bool true -> ()
  | _ -> Alcotest.failf "expected ok reply, got %s" (Json.to_string reply)

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_wire_parse_exact_cc () =
  let line =
    Json.to_string
      (Json.Obj
         [ ("op", Json.String "exact_cc"); ("id", Json.Int 7);
           ("matrix", board_json) ])
  in
  match Wire.parse line with
  | Ok { id = Json.Int 7; op = "exact_cc"; deadline_ms = None;
         req = Wire.Exact_cc { matrix; use_cache = true } } ->
      Alcotest.(check int) "rows" 8 (Bm.rows matrix);
      Alcotest.(check int) "cols" 8 (Bm.cols matrix);
      Alcotest.(check bool) "bit (0,1) set" true (Bm.get matrix 0 1);
      Alcotest.(check bool) "bit (0,0) clear" false (Bm.get matrix 0 0)
  | Ok _ -> Alcotest.fail "parsed into the wrong request"
  | Error (_, msg) -> Alcotest.failf "parse failed: %s" msg

let test_wire_parse_defaults_and_use_cache () =
  let line use_cache =
    Json.to_string
      (Json.Obj
         (("op", Json.String "exact_cc") :: ("matrix", Json.List [ Json.String "01" ])
         :: (match use_cache with
            | Some b -> [ ("use_cache", Json.Bool b) ]
            | None -> [])))
  in
  (match Wire.parse (line (Some false)) with
  | Ok { req = Wire.Exact_cc { use_cache = false; _ }; _ } -> ()
  | _ -> Alcotest.fail "use_cache:false not honored");
  match Wire.parse (line None) with
  | Ok { id = Json.Null; req = Wire.Exact_cc { use_cache = true; _ }; _ } -> ()
  | _ -> Alcotest.fail "use_cache should default to true, id to null"

let test_wire_parse_singular_bigints () =
  let line =
    {|{"op":"singular","matrix":[[1,"123456789012345678901234567890"],["-2",3]]}|}
  in
  match Wire.parse line with
  | Ok { req = Wire.Singular { matrix }; _ } ->
      Alcotest.(check string) "bigint entry survives"
        "123456789012345678901234567890"
        (Commx_bigint.Bigint.to_string (Commx_linalg.Zmatrix.get matrix 0 1))
  | Ok _ -> Alcotest.fail "wrong request"
  | Error (_, msg) -> Alcotest.failf "parse failed: %s" msg

let expect_parse_error line fragment =
  match Wire.parse line with
  | Ok _ -> Alcotest.failf "line %S was accepted" line
  | Error (_, msg) ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      if not (contains msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment

let test_wire_parse_rejections () =
  expect_parse_error "nonsense" "malformed JSON";
  expect_parse_error {|[1,2]|} "JSON object";
  expect_parse_error {|{"id":1}|} "missing field \"op\"";
  expect_parse_error {|{"op":"teleport"}|} "unknown op";
  expect_parse_error {|{"op":"exact_cc"}|} "missing field \"matrix\"";
  expect_parse_error {|{"op":"exact_cc","matrix":[]}|} "no rows";
  expect_parse_error {|{"op":"exact_cc","matrix":["01","0"]}|} "unequal";
  expect_parse_error {|{"op":"exact_cc","matrix":["0x"]}|} "'0' and '1'";
  expect_parse_error
    (Json.to_string
       (Json.Obj
          [ ("op", Json.String "exact_cc");
            ("matrix",
             Json.List
               (List.init 65 (fun _ -> Json.String (String.make 65 '0')))) ]))
    "wire limit";
  (* the seeded-instance ops: 2n x 2n is held to the matrix limit and
     k to 64 bits, so one short line cannot pin a worker *)
  expect_parse_error {|{"op":"lemma32","n":33}|} "wire limit";
  expect_parse_error {|{"op":"protocol","n":2001}|} "wire limit";
  expect_parse_error {|{"op":"protocol","n":4611686018427387903}|}
    "wire limit";
  expect_parse_error {|{"op":"protocol","k":65}|} "wire limit";
  expect_parse_error {|{"op":"lemma32","n":7,"k":1000}|} "wire limit";
  (match Wire.parse {|{"op":"protocol","n":31,"k":64}|} with
  | Ok { req = Wire.Protocol_run { n = 31; k = 64; _ }; _ } -> ()
  | _ -> Alcotest.fail "n=31, k=64 is inside the wire limits");
  (* the id is recovered even from a bad request so the error reply
     still correlates *)
  match Wire.parse {|{"op":"teleport","id":42}|} with
  | Error (Json.Int 42, _) -> ()
  | _ -> Alcotest.fail "id not recovered from a bad request"

let test_wire_parse_deadline () =
  (match Wire.parse {|{"op":"ping","deadline_ms":250}|} with
  | Ok { deadline_ms = Some 250; req = Wire.Ping; _ } -> ()
  | _ -> Alcotest.fail "deadline_ms not parsed");
  expect_parse_error {|{"op":"ping","deadline_ms":0}|} "deadline_ms";
  expect_parse_error {|{"op":"ping","deadline_ms":-5}|} "deadline_ms";
  expect_parse_error {|{"op":"ping","deadline_ms":"soon"}|} "deadline_ms"

let test_wire_error_codes () =
  let coded = Wire.error ~code:"overloaded" ~id:(Json.Int 1) "busy" in
  Alcotest.(check (option string)) "code readable" (Some "overloaded")
    (Wire.error_code coded);
  Alcotest.(check (option string)) "plain errors carry no code" None
    (Wire.error_code (Wire.error ~id:Json.Null "bad request"));
  Alcotest.(check (option string)) "ok replies carry no code" None
    (Wire.error_code (Wire.ok ~id:Json.Null ~op:"ping" []));
  (* extra fields ride along with the code *)
  let e =
    Wire.error ~code:"timed_out"
      ~fields:[ ("lower_bound", Json.Int 3) ]
      ~id:(Json.Int 2) "deadline exceeded"
  in
  match Json.member "lower_bound" e with
  | Some (Json.Int 3) -> ()
  | _ -> Alcotest.fail "error fields lost"

(* ------------------------------------------------------------------ *)
(* Cache + tags                                                        *)
(* ------------------------------------------------------------------ *)

let test_cache_fifo_eviction () =
  let c = Cache.create ~capacity:2 in
  Alcotest.(check bool) "miss on empty" true (Cache.find c "a" = None);
  Cache.add c "a" (Json.Int 1);
  Cache.add c "b" (Json.Int 2);
  Cache.add c "a" (Json.Int 10) (* replace: no eviction, no new slot *);
  Cache.add c "c" (Json.Int 3) (* evicts "a": oldest insertion *);
  Alcotest.(check bool) "oldest evicted" true (Cache.find c "a" = None);
  Alcotest.(check bool) "newer kept" true (Cache.find c "b" = Some (Json.Int 2));
  Alcotest.(check bool) "newest kept" true (Cache.find c "c" = Some (Json.Int 3));
  let st = Cache.stats c in
  Alcotest.(check int) "hits" 2 st.Cache.hits;
  Alcotest.(check int) "misses" 2 st.Cache.misses;
  Alcotest.(check int) "evictions" 1 st.Cache.evictions;
  Alcotest.(check int) "entries" 2 st.Cache.entries

let test_cache_json_roundtrip () =
  let c = Cache.create ~capacity:8 in
  Cache.add c "x" (Json.Obj [ ("value", Json.Int 4) ]);
  Cache.add c "y" (Json.Obj [ ("value", Json.Int 5) ]);
  let c' = Cache.load ~capacity:8 (Json.of_string (Json.to_string (Cache.to_json c))) in
  Alcotest.(check bool) "x survives" true
    (Cache.find c' "x" = Some (Json.Obj [ ("value", Json.Int 4) ]));
  Alcotest.(check bool) "y survives" true
    (Cache.find c' "y" = Some (Json.Obj [ ("value", Json.Int 5) ]));
  (match Cache.load ~capacity:4 (Json.String "zap") with
  | _ -> Alcotest.fail "garbage cache accepted"
  | exception Failure _ -> ());
  match Cache.load ~capacity:4 (Json.List [ Json.Int 3 ]) with
  | _ -> Alcotest.fail "malformed entry accepted"
  | exception Failure _ -> ()

let test_tags_sequential_and_stable () =
  let t = Cache.Tags.create () in
  let a = Cache.Tags.tag t "ka" in
  let b = Cache.Tags.tag t "kb" in
  Alcotest.(check int) "first tag" 0 a;
  Alcotest.(check int) "second tag" 1 b;
  Alcotest.(check int) "stable on re-query" a (Cache.Tags.tag t "ka");
  Alcotest.(check int) "count" 2 (Cache.Tags.count t);
  let t' = Cache.Tags.load (Json.of_string (Json.to_string (Cache.Tags.to_json t))) in
  Alcotest.(check int) "tag preserved across load" a (Cache.Tags.tag t' "ka");
  Alcotest.(check int) "allocation resumes after max" 2 (Cache.Tags.tag t' "kc");
  match
    Cache.Tags.load
      (Json.List
         [ Json.List [ Json.String "p"; Json.Int 0 ];
           Json.List [ Json.String "q"; Json.Int 0 ] ])
  with
  | _ -> Alcotest.fail "duplicate tags accepted"
  | exception Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* End-to-end over a real socket                                       *)
(* ------------------------------------------------------------------ *)

let socket_counter = ref 0

let fresh_path suffix =
  incr socket_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ccmx-test-%d-%d%s" (Unix.getpid ()) !socket_counter suffix)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let deadline = Clock.now_s () +. 5.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Clock.now_s () < deadline ->
        Unix.close fd;
        Clock.sleepf 0.02;
        go ()
  in
  go ()

let send client obj =
  output_string client.oc (Wire.to_line obj);
  flush client.oc

let recv client = Json.of_string (input_line client.ic)

let rpc client obj =
  send client obj;
  recv client

let close_client client = try Unix.close client.fd with Unix.Unix_error _ -> ()

let with_server ?snapshot_path ?(workers = 2) ?(logger = Logging.null)
    ?request_timeout_s ?snapshot_every_s ?max_queue ?max_line_bytes
    ?respawn_budget ?chaos ?metrics_socket ?metrics_port ?slow_ms ?trace_ring f =
  let socket_path = fresh_path ".sock" in
  let cfg =
    Server.config ~socket_path ~workers ?snapshot_path ~cache_capacity:64
      ~logger ?request_timeout_s ?snapshot_every_s ?max_queue ?max_line_bytes
      ?respawn_budget ?chaos ?metrics_socket ?metrics_port ?slow_ms ?trace_ring
      ~drain_timeout_s:10.0 ()
  in
  (* the robustness counters only record at Metrics level, and the
     stats op surfaces them *)
  Telemetry.set_level Telemetry.Metrics;
  let stop = Atomic.make false in
  let d = Domain.spawn (fun () -> Server.run ~stop cfg) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join d;
      try Unix.unlink socket_path with Unix.Unix_error _ -> ())
    (fun () -> f socket_path)

let exact_cc_req ?(id = Json.Null) ?use_cache ?deadline_ms matrix =
  Json.Obj
    (("op", Json.String "exact_cc") :: ("id", id) :: ("matrix", matrix)
    :: ((match use_cache with Some b -> [ ("use_cache", Json.Bool b) ] | None -> [])
       @ match deadline_ms with Some ms -> [ ("deadline_ms", Json.Int ms) ] | None -> []))

let stats_req = Json.Obj [ ("op", Json.String "stats") ]

let counter_field stats name =
  let counters = obj_field stats "counters" in
  match Json.member name counters with
  | Some (Json.Int v) -> v
  | _ -> Alcotest.failf "stats counters lack %S" name

let check_code name expected reply =
  (match Json.member "ok" reply with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.failf "%s: expected an error reply, got %s" name
           (Json.to_string reply));
  Alcotest.(check (option string)) name (Some expected) (Wire.error_code reply)

let test_serve_warm_cache_end_to_end () =
  with_server (fun path ->
      let c = connect path in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      assert_ok (rpc c (Json.Obj [ ("op", Json.String "ping") ]));
      (* Cold: a real search with real node expansions. *)
      let cold = rpc c (exact_cc_req ~id:(Json.Int 1) board_json) in
      assert_ok cold;
      Alcotest.(check int) "exact CC of the board" 4 (int_field cold "value");
      Alcotest.(check string) "cold misses" "miss" (string_field cold "cache");
      Alcotest.(check bool) "cold search expands nodes" true
        (int_field cold "nodes" > 0);
      (* Identical query: served from the warm cache — the hit counter
         moves and NO new nodes expand. *)
      let warm = rpc c (exact_cc_req ~id:(Json.Int 2) board_json) in
      assert_ok warm;
      Alcotest.(check int) "same value" 4 (int_field warm "value");
      Alcotest.(check string) "warm hits" "hit" (string_field warm "cache");
      Alcotest.(check int) "zero new node expansions" 0 (int_field warm "nodes");
      Alcotest.(check bool) "table_hits > 0" true (int_field warm "table_hits" > 0);
      (* Bypassing the result cache exercises the second warm tier: the
         persistent transposition table answers from its root entry. *)
      let bypass = rpc c (exact_cc_req ~id:(Json.Int 3) ~use_cache:false board_json) in
      assert_ok bypass;
      Alcotest.(check string) "bypass" "bypass" (string_field bypass "cache");
      Alcotest.(check int) "warm table: zero expansions" 0 (int_field bypass "nodes");
      Alcotest.(check bool) "warm table: hits recorded" true
        (int_field bypass "table_hits" > 0);
      Alcotest.(check int) "same value through the warm table" 4
        (int_field bypass "value");
      (* Result-cache hit counter incremented exactly once (the "hit"
         reply); the bypass deliberately did not read it. *)
      let stats = rpc c (Json.Obj [ ("op", Json.String "stats") ]) in
      assert_ok stats;
      let rc = obj_field stats "result_cache" in
      Alcotest.(check int) "cache-hit counter" 1 (int_field rc "hits");
      Alcotest.(check bool) "requests counted" true (int_field stats "requests" >= 5);
      let lat = obj_field stats "latency_us" in
      Alcotest.(check bool) "latency samples" true (int_field lat "count" >= 4);
      let p50 = float_field lat "p50"
      and p95 = float_field lat "p95"
      and p99 = float_field lat "p99" in
      Alcotest.(check bool) "p50 > 0" true (p50 > 0.0);
      Alcotest.(check bool) "percentiles ordered" true (p50 <= p95 && p95 <= p99);
      (* One latency store: the overall count is the per-op counts
         summed, both read from the serve.op_us histograms. *)
      let op_counts =
        match Json.member "ops" stats with
        | Some (Json.Obj ops) ->
            List.fold_left (fun acc (_, o) -> acc + int_field o "count") 0 ops
        | _ -> Alcotest.fail "stats lacks ops"
      in
      Alcotest.(check int) "latency_us.count = sum of ops counts" op_counts
        (int_field lat "count");
      (* Errors come back as replies, never dropped connections. *)
      let err = rpc c (Json.Obj [ ("op", Json.String "teleport"); ("id", Json.Int 9) ]) in
      (match Json.member "ok" err with
      | Some (Json.Bool false) -> ()
      | _ -> Alcotest.fail "expected an error reply");
      Alcotest.(check bool) "id echoed on error" true
        (Json.member "id" err = Some (Json.Int 9)))

let test_serve_reply_order_is_request_order () =
  with_server (fun path ->
      let c = connect path in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      (* Pipeline: slow search first, trivial pings behind it.  Replies
         must still come back in request order. *)
      let n = 12 in
      send c (exact_cc_req ~id:(Json.Int 0) board_json);
      for i = 1 to n do
        send c (Json.Obj [ ("op", Json.String "ping"); ("id", Json.Int i) ])
      done;
      for i = 0 to n do
        let reply = recv c in
        assert_ok reply;
        Alcotest.(check int) "reply order" i (int_field reply "id")
      done)

let test_serve_survives_broken_pipe_client () =
  with_server (fun path ->
      (* Client A queues work and vanishes without reading anything:
         the daemon must swallow the EPIPE and keep serving. *)
      let a = connect path in
      send a (exact_cc_req board_json);
      send a (exact_cc_req board_json);
      close_client a;
      let b = connect path in
      Fun.protect ~finally:(fun () -> close_client b) @@ fun () ->
      assert_ok (rpc b (Json.Obj [ ("op", Json.String "ping") ]));
      let r = rpc b (exact_cc_req board_json) in
      assert_ok r;
      Alcotest.(check int) "daemon still computes" 4 (int_field r "value"))

let test_serve_snapshot_restart_stays_warm () =
  let snapshot_path = fresh_path ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove snapshot_path with Sys_error _ -> ())
    (fun () ->
      (* First life: do a cold search, then drain via the shutdown op
         (which must also answer ok). *)
      with_server ~snapshot_path (fun path ->
          let c = connect path in
          Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
          let cold = rpc c (exact_cc_req board_json) in
          assert_ok cold;
          Alcotest.(check bool) "first life searches" true
            (int_field cold "nodes" > 0);
          assert_ok (rpc c (Json.Obj [ ("op", Json.String "shutdown") ])));
      Alcotest.(check bool) "snapshot written" true (Sys.file_exists snapshot_path);
      (* Second life, different worker count: both warm tiers must
         survive the restart — result cache AND transposition table
         (whose segments were redistributed across 3 workers). *)
      with_server ~snapshot_path ~workers:3 (fun path ->
          let c = connect path in
          Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
          let hit = rpc c (exact_cc_req board_json) in
          assert_ok hit;
          Alcotest.(check string) "result cache survived" "hit"
            (string_field hit "cache");
          Alcotest.(check int) "no expansions" 0 (int_field hit "nodes");
          let bypass = rpc c (exact_cc_req ~use_cache:false board_json) in
          assert_ok bypass;
          Alcotest.(check int) "table warmth survived" 0
            (int_field bypass "nodes");
          Alcotest.(check bool) "warm hits after restart" true
            (int_field bypass "table_hits" > 0)))

let test_serve_rejects_corrupt_snapshot () =
  let snapshot_path = fresh_path ".snap" in
  let oc = open_out snapshot_path in
  output_string oc "{\"format\":\"ccmx-serve-snapshot\",\"version\":999}";
  close_out oc;
  let logs = ref [] in
  Fun.protect
    ~finally:(fun () -> try Sys.remove snapshot_path with Sys_error _ -> ())
    (fun () ->
      with_server ~snapshot_path
        ~logger:(Logging.create ~sink:(fun r -> logs := r :: !logs) ())
        (fun path ->
          let c = connect path in
          Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
          (* Cold start: the bad snapshot was rejected, not half-loaded. *)
          let r = rpc c (exact_cc_req board_json) in
          assert_ok r;
          Alcotest.(check bool) "started cold" true (int_field r "nodes" > 0)));
  Alcotest.(check bool) "rejection logged" true
    (List.exists
       (fun record ->
         Json.member "level" record = Some (Json.String "warn")
         &&
         match Json.member "msg" record with
         | Some (Json.String msg) ->
             let nn = String.length "version 999" in
             let rec go i =
               i + nn <= String.length msg
               && (String.sub msg i nn = "version 999" || go (i + 1))
             in
             go 0
         | _ -> false)
       !logs)

(* ------------------------------------------------------------------ *)
(* Self-healing: deadlines, crashes, shedding, oversized lines,        *)
(* periodic snapshots, resilient client                                *)
(* ------------------------------------------------------------------ *)

let test_serve_request_deadline_times_out_with_bounds () =
  with_server ~workers:2 (fun path ->
      let a = connect path in
      let b = connect path in
      Fun.protect
        ~finally:(fun () ->
          close_client a;
          close_client b)
        (fun () ->
          (* B's small board runs while A's search burns: either it
             routes to the other worker, or, queued behind the search,
             the idle worker steals it. *)
          let t0 = Clock.now_s () in
          send a (exact_cc_req ~id:(Json.Int 1) ~deadline_ms:300 slow_board_json);
          let small = rpc b (exact_cc_req ~id:(Json.Int 7) board_json) in
          let t_small = Clock.now_s () -. t0 in
          assert_ok small;
          Alcotest.(check int) "concurrent small request completes" 4
            (int_field small "value");
          Alcotest.(check bool)
            (Printf.sprintf "small request not starved by the slow one \
                             (%.3fs)" t_small)
            true (t_small < 0.25);
          let r = recv a in
          let elapsed = Clock.now_s () -. t0 in
          check_code "search interrupted" "timed_out" r;
          (* the reply carries whatever the search certified before dying *)
          let lb = int_field r "lower_bound" and ub = int_field r "upper_bound" in
          Alcotest.(check bool) "lower bound certified" true (lb >= 1);
          Alcotest.(check bool) "bounds ordered" true (lb <= ub);
          Alcotest.(check bool)
            (Printf.sprintf "answered within ~2x the deadline, not after \
                             the full search (%.3fs elapsed)" elapsed)
            true (elapsed < 0.6);
          (* the worker survives a timeout and still computes *)
          let ok = rpc a (exact_cc_req ~id:(Json.Int 2) board_json) in
          assert_ok ok;
          Alcotest.(check int) "value after a timeout" 4 (int_field ok "value");
          let stats = rpc a stats_req in
          Alcotest.(check bool) "timeout counted" true
            (counter_field stats "serve.deadline_timeouts" >= 1)))

(* Poll [stats] until worker [wid] has a job in flight. *)
let wait_in_flight c wid =
  let deadline = Clock.now_s () +. 5.0 in
  let rec go () =
    let busy =
      match obj_field (rpc c stats_req) "queues" with
      | Json.List qs ->
          List.exists
            (fun q -> int_field q "worker" = wid && int_field q "inflight" = 1)
            qs
      | _ -> Alcotest.fail "stats queues is not a list"
    in
    if not busy then
      if Clock.now_s () > deadline then
        Alcotest.failf "worker %d never picked up its job" wid
      else begin
        Clock.sleepf 0.005;
        go ()
      end
  in
  go ()

let test_serve_idle_worker_steals_behind_busy_peer () =
  with_server ~workers:2 (fun path ->
      let a = connect path in
      let b = connect path in
      Fun.protect
        ~finally:(fun () ->
          close_client a;
          close_client b)
        (fun () ->
          (* Tags go out in first-seen order and exact CC routes by tag
             mod 2: the slow board takes tag 0 (worker 0), the 2x2
             filler tag 1 (worker 1), and the reference board tag 2 —
             worker 0 again, queued behind the running search unless
             the idle worker 1 steals it. *)
          let t0 = Clock.now_s () in
          send a (exact_cc_req ~id:(Json.Int 1) ~deadline_ms:300 slow_board_json);
          wait_in_flight b 0;
          let steals0 = counter_field (rpc b stats_req) "serve.steals" in
          let filler = Json.List [ Json.String "10"; Json.String "01" ] in
          assert_ok (rpc b (exact_cc_req ~id:(Json.Int 2) filler));
          let small = rpc b (exact_cc_req ~id:(Json.Int 3) board_json) in
          let t_small = Clock.now_s () -. t0 in
          assert_ok small;
          Alcotest.(check int) "stolen job answers alike" 4
            (int_field small "value");
          Alcotest.(check bool)
            (Printf.sprintf "small request not stuck behind the search \
                             (%.3fs)" t_small)
            true (t_small < 0.25);
          Alcotest.(check bool) "steal counted" true
            (counter_field (rpc b stats_req) "serve.steals" - steals0 >= 1);
          check_code "search interrupted" "timed_out" (recv a)))

let test_serve_idle_daemon_keeps_affinity () =
  with_server ~workers:2 (fun path ->
      let c = connect path in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let steals0 = counter_field (rpc c stats_req) "serve.steals" in
      (* Sequential requests find their owner idle, so none may be
         stolen onto the other worker's cold segment. *)
      for i = 0 to 19 do
        let r =
          rpc c (exact_cc_req ~id:(Json.Int i) ~use_cache:false board_json)
        in
        assert_ok r;
        if i > 0 then begin
          Alcotest.(check int)
            (Printf.sprintf "repeat %d: zero expansions" i)
            0 (int_field r "nodes");
          Alcotest.(check bool)
            (Printf.sprintf "repeat %d: table hits" i)
            true
            (int_field r "table_hits" > 0)
        end
      done;
      Alcotest.(check int) "nothing stolen" steals0
        (counter_field (rpc c stats_req) "serve.steals"))

let test_serve_server_side_default_deadline () =
  (* No deadline_ms on the wire: the --request-timeout default applies. *)
  with_server ~workers:1 ~request_timeout_s:0.06 (fun path ->
      let c = connect path in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let r = rpc c (exact_cc_req ~id:(Json.Int 1) slow_board_json) in
      check_code "server default deadline" "timed_out" r;
      (* trivial ops are still answered inline, never deadline-shed *)
      assert_ok (rpc c (Json.Obj [ ("op", Json.String "ping") ])))

let crash_site w j = Printf.sprintf "serve:worker:%d:job%d" w j

(* Scan for a chaos seed (at rate 0.5) that crashes worker 0's first
   job and then lets the next several pass: one crash, then healing.
   Faults decisions are a pure function of (seed, site), so the scan
   is exact — no daemon needed to predict the fault pattern. *)
let find_single_crash_seed () =
  let rate = 0.5 in
  let ok seed =
    Faults.unit_float ~seed ~site:(crash_site 0 0) < rate
    && List.for_all
         (fun j -> Faults.unit_float ~seed ~site:(crash_site 0 j) >= rate)
         [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  let rec go s =
    if s > 100_000 then Alcotest.fail "no single-crash chaos seed found"
    else if ok s then s
    else go (s + 1)
  in
  go 0

let test_serve_worker_crash_isolated_and_respawned () =
  let seed = find_single_crash_seed () in
  let chaos = Faults.create ~seed ~rate:0.5 ~delay_rate:0.0 () in
  with_server ~workers:1 ~chaos (fun path ->
      let c = connect path in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      (* job 0 crashes the worker; the in-flight request is answered
         with a structured error, not a dropped connection *)
      let r1 = rpc c (exact_cc_req ~id:(Json.Int 1) board_json) in
      check_code "crash becomes a structured error" "worker_crashed" r1;
      (* the daemon heals: the respawned worker answers the retry *)
      let r2 = rpc c (exact_cc_req ~id:(Json.Int 2) board_json) in
      assert_ok r2;
      Alcotest.(check int) "respawned worker computes" 4 (int_field r2 "value");
      let stats = rpc c stats_req in
      Alcotest.(check bool) "respawn counted" true
        (counter_field stats "serve.worker_respawns" >= 1);
      Alcotest.(check int) "all workers alive again" 1
        (int_field stats "workers_alive"))

let test_serve_respawn_budget_exhaustion_is_fatal () =
  (* rate 1.0: every job crashes its worker.  budget 1: the first
     crash respawns, the second makes the daemon give up — drain,
     snapshot-less stop, Server.Fatal out of run. *)
  let chaos = Faults.create ~seed:0 ~rate:1.0 ~delay_rate:0.0 () in
  let socket_path = fresh_path ".sock" in
  let cfg =
    Server.config ~socket_path ~workers:1 ~cache_capacity:64
      ~logger:Logging.null ~drain_timeout_s:5.0 ~respawn_budget:1 ~chaos ()
  in
  Telemetry.set_level Telemetry.Metrics;
  let outcome = ref None in
  let d =
    Domain.spawn (fun () ->
        match Server.run cfg with
        | () -> outcome := Some (Ok ())
        | exception Server.Fatal msg -> outcome := Some (Error msg))
  in
  Fun.protect
    ~finally:(fun () ->
      try Unix.unlink socket_path with Unix.Unix_error _ -> ())
    (fun () ->
      let c = connect socket_path in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let r1 = rpc c (exact_cc_req ~id:(Json.Int 1) board_json) in
      check_code "first crash answered" "worker_crashed" r1;
      let r2 = rpc c (exact_cc_req ~id:(Json.Int 2) board_json) in
      check_code "second crash answered" "worker_crashed" r2;
      (* the daemon shuts itself down; run raises Fatal *)
      Domain.join d;
      match !outcome with
      | Some (Error msg) ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "message names the budget" true
            (contains msg "respawn budget")
      | Some (Ok ()) -> Alcotest.fail "run returned instead of raising Fatal"
      | None -> Alcotest.fail "server domain exited without recording")

let test_serve_overload_shedding_is_immediate_and_ordered () =
  with_server ~workers:1 ~max_queue:1 (fun path ->
      let a = connect path in
      let b = connect path in
      Fun.protect
        ~finally:(fun () ->
          close_client a;
          close_client b)
        (fun () ->
          (* A: one slow job in flight, one queued — the queue is full.
             Deadlines bound the test's wall time. *)
          send a
            (exact_cc_req ~id:(Json.Int 0) ~use_cache:false ~deadline_ms:900
               slow_board_json);
          Clock.sleepf 0.15 (* let the worker dequeue job 0 *);
          send a
            (exact_cc_req ~id:(Json.Int 1) ~use_cache:false ~deadline_ms:900
               slow_board_json);
          Clock.sleepf 0.1;
          (* B floods the same worker: every request must be shed
             immediately — not parked behind A's slow job — in order. *)
          let t0 = Clock.now_s () in
          for i = 0 to 2 do
            send b
              (exact_cc_req ~id:(Json.Int (10 + i)) ~use_cache:false
                 slow_board_json)
          done;
          for i = 0 to 2 do
            let r = recv b in
            Alcotest.(check int) "shed replies in request order" (10 + i)
              (int_field r "id");
            check_code "shed with a structured code" "overloaded" r
          done;
          let shed_s = Clock.now_s () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "shedding is immediate (%.3fs)" shed_s)
            true (shed_s < 0.4);
          (* B keeps working, and the stats op counts the sheds *)
          assert_ok (rpc b (Json.Obj [ ("op", Json.String "ping") ]));
          let stats = rpc b stats_req in
          Alcotest.(check bool) "overload counter moved" true
            (counter_field stats "serve.overloaded" >= 3);
          (* A's slow jobs drain via their deadlines, still in order *)
          let r0 = recv a in
          Alcotest.(check int) "A reply order 0" 0 (int_field r0 "id");
          check_code "in-flight job timed out" "timed_out" r0;
          let r1 = recv a in
          Alcotest.(check int) "A reply order 1" 1 (int_field r1 "id");
          check_code "queued job shed at its deadline" "timed_out" r1))

let test_serve_too_large_rejected_at_admission () =
  with_server (fun path ->
      let c = connect path in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let board n distinct =
        (* n x n, but only [distinct] distinct rows/columns: canonical
           dims are [distinct x distinct] *)
        Json.List
          (List.init n (fun i ->
               Json.String
                 (String.init n (fun j ->
                      if i mod distinct = j mod distinct then '1' else '0'))))
      in
      (* Inside the 64x64 wire limit, above the engine cap: rejected at
         admission with a structured code and the offending canonical
         dimensions. *)
      let r = rpc c (exact_cc_req ~id:(Json.Int 1) (board 24 24)) in
      check_code "too_large code" "too_large" r;
      Alcotest.(check int) "canon_rows" 24 (int_field r "canon_rows");
      Alcotest.(check int) "canon_cols" 24 (int_field r "canon_cols");
      Alcotest.(check int) "limit is the engine cap"
        Commx_comm.Exact_cc.max_side (int_field r "limit");
      (* The check is canonicalization-aware: a 24x24 input that
         collapses to 8x8 sails through and gets its exact value. *)
      let ok8 = rpc c (exact_cc_req ~id:(Json.Int 2) (board 24 8)) in
      assert_ok ok8;
      Alcotest.(check int) "collapsible oversize board accepted" 4
        (int_field ok8 "value");
      (* Rejection never reached a worker: the connection keeps
         working and the admission counter moved. *)
      let stats = rpc c stats_req in
      Alcotest.(check bool) "too_large counted" true
        (counter_field stats "serve.too_large" >= 1);
      Alcotest.(check bool) "error counted" true (int_field stats "errors" >= 1))

let test_serve_oversized_line_recovery () =
  with_server ~max_line_bytes:2048 (fun path ->
      let c = connect path in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      output_string c.oc (String.make 8192 'x');
      output_char c.oc '\n';
      flush c.oc;
      let r = recv c in
      check_code "oversized line answered" "line_too_long" r;
      (* the oversized line was skipped, the connection survives *)
      let pong = rpc c (Json.Obj [ ("op", Json.String "ping"); ("id", Json.Int 1) ]) in
      assert_ok pong;
      Alcotest.(check int) "same connection keeps working" 1
        (int_field pong "id");
      let stats = rpc c stats_req in
      Alcotest.(check bool) "oversize counted" true
        (counter_field stats "serve.oversized_lines" >= 1))

let test_serve_periodic_snapshots () =
  let snapshot_path = fresh_path ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove snapshot_path with Sys_error _ -> ())
    (fun () ->
      with_server ~snapshot_path ~snapshot_every_s:0.1 (fun path ->
          let c = connect path in
          Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
          assert_ok (rpc c (exact_cc_req board_json));
          (* the file appears while the daemon is still serving *)
          let deadline = Clock.now_s () +. 5.0 in
          while
            (not (Sys.file_exists snapshot_path)) && Clock.now_s () < deadline
          do
            Clock.sleepf 0.05
          done;
          Alcotest.(check bool) "periodic snapshot written" true
            (Sys.file_exists snapshot_path);
          let stats = rpc c stats_req in
          Alcotest.(check bool) "snapshot counter moved" true
            (counter_field stats "serve.snapshots_written" >= 1)))

(* ------------------------------------------------------------------ *)
(* Observability: /metrics + /healthz, flight recorder, slow-query     *)
(* log, structured chaos logs                                          *)
(* ------------------------------------------------------------------ *)

(* One-shot HTTP/1.0 GET over a Unix socket — what a Prometheus
   scraper does, minus TCP. *)
let http_get sock_path target =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock_path);
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" target in
      let _ = Unix.write_substring fd req 0 (String.length req) in
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      let raw = Buffer.contents buf in
      let status =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> int_of_string code
        | _ -> Alcotest.failf "malformed HTTP response: %s" raw
      in
      let n = String.length raw in
      let rec body_at i =
        if i + 4 > n then Alcotest.failf "no header terminator in %s" raw
        else if String.sub raw i 4 = "\r\n\r\n" then i + 4
        else body_at (i + 1)
      in
      let b = body_at 0 in
      (status, String.sub raw b (n - b)))

(* The value of an (unlabeled) sample line, [None] when absent. *)
let metric_value body name =
  let prefix = name ^ " " in
  let pl = String.length prefix in
  String.split_on_char '\n' body
  |> List.find_map (fun l ->
         if String.length l > pl && String.sub l 0 pl = prefix then
           Some (float_of_string (String.sub l pl (String.length l - pl)))
         else None)

let metric body name =
  match metric_value body name with
  | Some v -> v
  | None -> Alcotest.failf "metric %S not in exposition" name

let test_serve_metrics_endpoint_cold_warm () =
  let msock = fresh_path ".metrics.sock" in
  with_server ~metrics_socket:msock (fun path ->
      let c = connect path in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      (* Cold query: a result-cache miss. *)
      assert_ok (rpc c (exact_cc_req ~id:(Json.Int 1) board_json));
      let _, cold = http_get msock "/metrics" in
      Alcotest.(check (float 0.0)) "no hits yet" 0.0
        (metric cold "serve_cache_hits_total");
      Alcotest.(check bool) "cold miss counted" true
        (metric cold "serve_cache_misses_total" >= 1.0);
      (* Warm repeat: the hit counter must move between scrapes. *)
      let warm_reply = rpc c (exact_cc_req ~id:(Json.Int 2) board_json) in
      assert_ok warm_reply;
      Alcotest.(check string) "second query hits" "hit"
        (string_field warm_reply "cache");
      let status, warm = http_get msock "/metrics" in
      Alcotest.(check int) "scrape is 200" 200 status;
      Alcotest.(check bool) "hit counter moved cold->warm" true
        (metric warm "serve_cache_hits_total" >= 1.0);
      (* Quiesced agreement: the totals a scraper sees are the totals
         the in-band stats op reports. *)
      let stats = rpc c stats_req in
      let _, m = http_get msock "/metrics" in
      Alcotest.(check (float 0.0)) "requests agree with stats"
        (float_of_int (int_field stats "requests"))
        (metric m "serve_requests_total");
      Alcotest.(check (float 0.0)) "cache hits agree with stats"
        (float_of_int (int_field (obj_field stats "result_cache") "hits"))
        (metric m "serve_cache_hits_total");
      Alcotest.(check (float 0.0)) "crash counter agrees with stats"
        (float_of_int (counter_field stats "serve.worker_crashes"))
        (metric m "serve_worker_crashes_total");
      (* Per-op latency histograms carry op/outcome labels, and the
         per-worker gauges exist for every worker. *)
      let has_sub hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "labeled op histogram exposed" true
        (has_sub m "serve_op_us_bucket{op=\"exact_cc\"");
      Alcotest.(check bool) "per-worker queue gauge exposed" true
        (has_sub m "serve_queue_depth{worker=\"0\"}");
      Alcotest.(check bool) "TYPE headers present" true
        (has_sub m "# TYPE serve_requests_total counter");
      (* Readiness: all workers alive, queues empty -> 200 + ok. *)
      let hstatus, hbody = http_get msock "/healthz" in
      Alcotest.(check int) "healthz is 200" 200 hstatus;
      (match Json.member "ok" (Json.of_string (String.trim hbody)) with
      | Some (Json.Bool true) -> ()
      | _ -> Alcotest.failf "healthz not ok: %s" hbody);
      (* Unknown target: structured 404, connection survives daemon. *)
      let nstatus, _ = http_get msock "/nope" in
      Alcotest.(check int) "unknown path is 404" 404 nstatus)

let test_serve_dump_trace_parented_chain () =
  with_server (fun path ->
      let c = connect path in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      assert_ok
        (rpc c (exact_cc_req ~id:(Json.Int 1) ~use_cache:false board_json));
      (* The recorder entry lands just after the reply is written, so
         poll the dump_trace op briefly rather than racing it. *)
      let dump_req = Json.Obj [ ("op", Json.String "dump_trace") ] in
      let deadline = Clock.now_s () +. 5.0 in
      let rec events () =
        let r = rpc c dump_req in
        assert_ok r;
        (match Json.member "enabled" r with
        | Some (Json.Bool true) -> ()
        | _ -> Alcotest.fail "flight recorder should default on");
        match Json.member "trace" r with
        | Some trace -> (
            match Json.member "traceEvents" trace with
            | Some (Json.List evs) when evs <> [] -> evs
            | _ when Clock.now_s () < deadline ->
                Clock.sleepf 0.02;
                events ()
            | _ -> Alcotest.fail "no trace events recorded")
        | None -> Alcotest.fail "dump_trace reply lacks trace"
      in
      let evs = events () in
      let arg ev key =
        match Json.member "args" ev with
        | Some args -> Json.member key args
        | None -> None
      in
      let root =
        match
          List.find_opt
            (fun ev ->
              Json.member "name" ev = Some (Json.String "request")
              && arg ev "op" = Some (Json.String "exact_cc"))
            evs
        with
        | Some ev -> ev
        | None -> Alcotest.fail "no request root span for exact_cc"
      in
      Alcotest.(check (option string)) "root has no parent"
        (Some "0")
        (match arg root "parent" with
        | Some (Json.Int p) -> Some (string_of_int p)
        | _ -> None);
      let root_id =
        match arg root "span" with
        | Some (Json.Int i) -> i
        | _ -> Alcotest.fail "root span lacks id"
      in
      let child name =
        match
          List.find_opt
            (fun ev ->
              Json.member "name" ev = Some (Json.String name)
              && arg ev "parent" = Some (Json.Int root_id))
            evs
        with
        | Some ev -> ev
        | None -> Alcotest.failf "no %S span parented to the request" name
      in
      let _qw = child "queue_wait" in
      let search = child "search" in
      let _rw = child "reply_write" in
      (* the search span carries the effort the reply reported *)
      (match arg search "nodes" with
      | Some (Json.String n) ->
          Alcotest.(check bool) "search span records nodes" true
            (int_of_string n > 0)
      | _ -> Alcotest.fail "search span lacks nodes");
      (* complete events: ph = "X" with microsecond timestamps *)
      Alcotest.(check bool) "chrome complete events" true
        (List.for_all
           (fun ev -> Json.member "ph" ev = Some (Json.String "X"))
           evs))

let test_serve_slow_query_logs_one_line () =
  let logs_m = Mutex.create () in
  let logs = ref [] in
  let sink r =
    Mutex.lock logs_m;
    logs := r :: !logs;
    Mutex.unlock logs_m
  in
  let slow_lines () =
    Mutex.lock logs_m;
    let l =
      List.filter
        (fun r -> Json.member "msg" r = Some (Json.String "slow_query"))
        !logs
    in
    Mutex.unlock logs_m;
    l
  in
  with_server ~slow_ms:50.0
    ~logger:(Logging.create ~sink ())
    (fun path ->
      let c = connect path in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      (* One deadline-bound slow search: ~300 ms wall, well past the
         50 ms threshold; the timed_out error reply still carries the
         certified bounds the log line should surface. *)
      let r =
        rpc c
          (exact_cc_req ~id:(Json.Int 9) ~use_cache:false ~deadline_ms:300
             slow_board_json)
      in
      check_code "slow request timed out" "timed_out" r;
      (* the log line lands after the reply is delivered — poll briefly *)
      let deadline = Clock.now_s () +. 5.0 in
      while slow_lines () = [] && Clock.now_s () < deadline do
        Clock.sleepf 0.02
      done;
      (match slow_lines () with
      | [ line ] ->
          let field key =
            match Json.member key line with
            | Some v -> v
            | None ->
                Alcotest.failf "slow_query line lacks %S: %s" key
                  (Json.to_string line)
          in
          Alcotest.(check string) "level is warn" "warn"
            (match field "level" with Json.String s -> s | _ -> "?");
          Alcotest.(check string) "op recorded" "exact_cc"
            (match field "op" with Json.String s -> s | _ -> "?");
          Alcotest.(check string) "outcome recorded" "timed_out"
            (match field "outcome" with Json.String s -> s | _ -> "?");
          (match field "wall_ms" with
          | Json.Float ms ->
              Alcotest.(check bool) "wall_ms past threshold" true (ms > 50.0)
          | _ -> Alcotest.fail "wall_ms not a float");
          ignore (field "tag");
          ignore (field "lower_bound");
          ignore (field "upper_bound");
          ignore (field "nodes")
      | lines ->
          Alcotest.failf "expected exactly one slow_query line, got %d"
            (List.length lines));
      (* the fast warm path stays silent and the counter agrees *)
      assert_ok (rpc c (Json.Obj [ ("op", Json.String "ping") ]));
      let stats = rpc c stats_req in
      Alcotest.(check bool) "slow counter moved" true
        (counter_field stats "serve.slow_queries" >= 1);
      Alcotest.(check int) "still exactly one line" 1
        (List.length (slow_lines ())))

let test_serve_chaos_log_file_is_json_lines () =
  (* Satellite: under chaos every daemon event must reach the sink as
     a parseable JSON record — nothing may bypass the logger onto raw
     stderr-style prints. *)
  let seed = find_single_crash_seed () in
  let chaos = Faults.create ~seed ~rate:0.5 ~delay_rate:0.0 () in
  let log_path = fresh_path ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
    (fun () ->
      with_server ~workers:1 ~chaos
        ~logger:(Logging.create ~sink:(Logging.file_sink ~path:log_path) ())
        (fun path ->
          let c = connect path in
          Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
          let r1 = rpc c (exact_cc_req ~id:(Json.Int 1) board_json) in
          check_code "chaos crash surfaced" "worker_crashed" r1;
          assert_ok (rpc c (exact_cc_req ~id:(Json.Int 2) board_json)));
      (* server fully stopped: the file is complete *)
      let ic = open_in log_path in
      let records = ref [] in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match Json.of_string line with
             | record -> records := record :: !records
             | exception _ ->
                 close_in ic;
                 Alcotest.failf "non-JSON log line: %s" line
         done
       with End_of_file -> close_in ic);
      Alcotest.(check bool) "log file has records" true (!records <> []);
      List.iter
        (fun r ->
          match
            (Json.member "ts" r, Json.member "level" r, Json.member "msg" r)
          with
          | Some _, Some (Json.String _), Some (Json.String _) -> ()
          | _ ->
              Alcotest.failf "record lacks ts/level/msg: %s" (Json.to_string r))
        !records;
      Alcotest.(check bool) "the crash itself was logged" true
        (List.exists
           (fun r ->
             match (Json.member "level" r, Json.member "msg" r) with
             | Some (Json.String "error"), Some (Json.String msg) ->
                 let nn = String.length "crashed" in
                 let rec go i =
                   i + nn <= String.length msg
                   && (String.sub msg i nn = "crashed" || go (i + 1))
                 in
                 go 0
             | _ -> false)
           !records))

(* rank_batch: one request carries many boards; every returned rank
   must equal the scalar kernel's, a repeat of the identical batch is
   served from the result cache, and an oversized batch is rejected
   with a parse error rather than queued. *)
let test_serve_rank_batch () =
  with_server (fun path ->
      let c = connect path in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      let g = Commx_util.Prng.create 99 in
      let boards = Array.init 20 (fun _ -> Bm.random g 9 7) in
      let to_rows m =
        Json.List
          (List.init (Bm.rows m) (fun i ->
               Json.String
                 (String.init (Bm.cols m) (fun j ->
                      if Bm.get m i j then '1' else '0'))))
      in
      let req id =
        Json.Obj
          [ ("op", Json.String "rank_batch"); ("id", Json.Int id);
            ( "matrices",
              Json.List (Array.to_list (Array.map to_rows boards)) ) ]
      in
      let reply = rpc c (req 1) in
      assert_ok reply;
      (match Json.member "values" reply with
      | Some (Json.List values) ->
          Alcotest.(check int) "count field" (Array.length boards)
            (int_field reply "count");
          Alcotest.(check int) "one rank per board" (Array.length boards)
            (List.length values);
          List.iteri
            (fun i v ->
              match v with
              | Json.Int r ->
                  Alcotest.(check int)
                    (Printf.sprintf "rank of board %d" i)
                    (Bm.rank boards.(i))
                    r
              | _ -> Alcotest.fail "non-integer rank in values")
            values
      | _ -> Alcotest.fail "reply lacks a values list");
      (* Identical batch again: one cache hit, zero extra work. *)
      let cache_hits () =
        int_field (obj_field (rpc c stats_req) "result_cache") "hits"
      in
      let before = cache_hits () in
      assert_ok (rpc c (req 2));
      let after = cache_hits () in
      Alcotest.(check bool) "repeat batch hits the result cache" true
        (after > before);
      (* Over the batch cap: rejected, connection still usable. *)
      let too_many =
        Json.Obj
          [ ("op", Json.String "rank_batch"); ("id", Json.Int 3);
            ( "matrices",
              Json.List
                (List.init (Wire.max_batch_size + 1) (fun _ ->
                     Json.List [ Json.String "1" ])) ) ]
      in
      (match Json.member "ok" (rpc c too_many) with
      | Some (Json.Bool false) -> ()
      | _ -> Alcotest.fail "oversized batch was accepted");
      assert_ok (rpc c (Json.Obj [ ("op", Json.String "ping") ])))

(* Every compute op through a live daemon: each ok reply's cacheable
   fields equal Ops.exec on a fresh table, field for field, and a
   request the op rejects comes back as an error reply. *)
let test_serve_answers_equal_ops () =
  let zrows rows =
    Json.List
      (List.map (fun r -> Json.List (List.map (fun v -> Json.Int v) r)) rows)
  in
  let req op fields = Json.Obj (("op", Json.String op) :: fields) in
  let singular rows = req "singular" [ ("matrix", zrows rows) ] in
  let proto name =
    req "protocol"
      [ ("protocol", Json.String name); ("n", Json.Int 7); ("k", Json.Int 2);
        ("seed", Json.Int 3) ]
  in
  let cases =
    [ req "exact_cc" [ ("matrix", board_json) ];
      singular [ [ 2; 1; 0 ]; [ 1; 3; 1 ]; [ 0; 1; 4 ] ];
      singular [ [ 1; 2; 3 ]; [ 2; 4; 6 ]; [ 1; 0; 1 ] ];
      req "lemma32"
        [ ("n", Json.Int 7); ("k", Json.Int 2); ("seed", Json.Int 5) ];
      req "lower_bounds" [ ("matrix", board_json) ];
      proto "trivial";
      proto "fingerprint";
      req "rank_batch"
        [ ("matrices", Json.List [ board_json; slow_board_json ]) ] ]
  in
  with_server (fun path ->
      let c = connect path in
      Fun.protect ~finally:(fun () -> close_client c) @@ fun () ->
      List.iter
        (fun line ->
          let reply = rpc c line in
          assert_ok reply;
          let env =
            match Wire.parse (Json.to_string line) with
            | Ok env -> env
            | Error (_, msg) -> Alcotest.fail msg
          in
          let want, _ =
            Ops.exec ~table:(Commx_util.Txtable.create ()) ~key_tag:0 env.req
          in
          Alcotest.(check string)
            (env.op ^ " cacheable fields")
            (Json.to_string (Json.Obj want))
            (Json.to_string (Json.Obj (Ops.cacheable reply))))
        cases;
      let non_square = rpc c (singular [ [ 1; 2; 3 ]; [ 4; 5; 6 ] ]) in
      (match Json.member "ok" non_square with
      | Some (Json.Bool false) -> ()
      | _ -> Alcotest.failf "non-square singular answered: %s"
               (Json.to_string non_square));
      assert_ok (rpc c (Json.Obj [ ("op", Json.String "ping") ])))

let test_client_end_to_end () =
  with_server (fun path ->
      let cl = Client.create ~socket_path:path () in
      Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
      (match Client.request cl ~op:"ping" [] with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "ping: %s" (Client.error_to_string e));
      (match Client.request cl ~op:"exact_cc" [ ("matrix", board_json) ] with
      | Ok reply -> Alcotest.(check int) "value" 4 (int_field reply "value")
      | Error e -> Alcotest.failf "exact_cc: %s" (Client.error_to_string e));
      (* a server-side deadline surfaces as a structured, non-retried
         server error *)
      (match
         Client.request cl ~deadline_ms:60 ~op:"exact_cc"
           [ ("matrix", slow_board_json); ("use_cache", Json.Bool false) ]
       with
      | Error (Client.Server_error { code = Some "timed_out"; _ }) -> ()
      | Ok _ -> Alcotest.fail "expected timed_out"
      | Error e -> Alcotest.failf "wrong error: %s" (Client.error_to_string e));
      (* a server that answers — even with errors — is alive: the
         breaker only counts unanswered requests *)
      Alcotest.(check string) "breaker stays closed" "closed"
        (Client.breaker_state cl))

let test_client_breaker_opens_and_fails_fast () =
  (* nothing listens at this path: every attempt is a transport
     failure, and after the threshold the breaker fails fast without
     touching the socket *)
  let path = fresh_path ".sock" in
  let cl =
    Client.create ~socket_path:path ~connect_timeout_s:0.2 ~retries:0
      ~breaker_threshold:2 ~breaker_cooldown_s:60.0 ()
  in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  (match Client.request cl ~op:"ping" [] with
  | Error (Client.Transport _) -> ()
  | r ->
      Alcotest.failf "expected a transport failure, got %s"
        (match r with Ok _ -> "ok" | Error e -> Client.error_to_string e));
  (match Client.request cl ~op:"ping" [] with
  | Error (Client.Transport _) -> ()
  | _ -> Alcotest.fail "expected a second transport failure");
  Alcotest.(check string) "breaker open after threshold" "open"
    (Client.breaker_state cl);
  match Client.request cl ~op:"ping" [] with
  | Error (Client.Breaker_open remaining) ->
      Alcotest.(check bool) "cooldown remaining is sane" true
        (remaining > 0.0 && remaining <= 60.0)
  | r ->
      Alcotest.failf "expected Breaker_open, got %s"
        (match r with Ok _ -> "ok" | Error e -> Client.error_to_string e)

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [ Alcotest.test_case "parse exact_cc" `Quick test_wire_parse_exact_cc;
          Alcotest.test_case "defaults + use_cache" `Quick
            test_wire_parse_defaults_and_use_cache;
          Alcotest.test_case "singular bigints" `Quick
            test_wire_parse_singular_bigints;
          Alcotest.test_case "rejections" `Quick test_wire_parse_rejections;
          Alcotest.test_case "deadline_ms" `Quick test_wire_parse_deadline;
          Alcotest.test_case "error codes" `Quick test_wire_error_codes ] );
      ( "cache",
        [ Alcotest.test_case "FIFO eviction + stats" `Quick
            test_cache_fifo_eviction;
          Alcotest.test_case "JSON roundtrip" `Quick test_cache_json_roundtrip;
          Alcotest.test_case "tags sequential + stable" `Quick
            test_tags_sequential_and_stable ] );
      ( "daemon",
        [ Alcotest.test_case "warm cache end-to-end" `Quick
            test_serve_warm_cache_end_to_end;
          Alcotest.test_case "reply order = request order" `Quick
            test_serve_reply_order_is_request_order;
          Alcotest.test_case "survives broken-pipe client" `Quick
            test_serve_survives_broken_pipe_client;
          Alcotest.test_case "snapshot keeps restart warm" `Quick
            test_serve_snapshot_restart_stays_warm;
          Alcotest.test_case "corrupt snapshot rejected" `Quick
            test_serve_rejects_corrupt_snapshot;
          Alcotest.test_case "answers equal Ops answers" `Quick
            test_serve_answers_equal_ops;
          Alcotest.test_case "rank_batch op end-to-end" `Quick
            test_serve_rank_batch ] );
      ( "self-healing",
        [ Alcotest.test_case "request deadline times out with bounds" `Quick
            test_serve_request_deadline_times_out_with_bounds;
          Alcotest.test_case "server-side default deadline" `Quick
            test_serve_server_side_default_deadline;
          Alcotest.test_case "worker crash isolated + respawned" `Quick
            test_serve_worker_crash_isolated_and_respawned;
          Alcotest.test_case "respawn budget exhaustion is fatal" `Quick
            test_serve_respawn_budget_exhaustion_is_fatal;
          Alcotest.test_case "overload shedding immediate + ordered" `Quick
            test_serve_overload_shedding_is_immediate_and_ordered;
          Alcotest.test_case "too_large rejected at admission" `Quick
            test_serve_too_large_rejected_at_admission;
          Alcotest.test_case "oversized line recovery" `Quick
            test_serve_oversized_line_recovery;
          Alcotest.test_case "periodic snapshots" `Quick
            test_serve_periodic_snapshots;
          Alcotest.test_case "idle worker steals a job queued behind a busy peer"
            `Quick test_serve_idle_worker_steals_behind_busy_peer;
          Alcotest.test_case "idle daemon keeps affinity" `Quick
            test_serve_idle_daemon_keeps_affinity ] );
      ( "observability",
        [ Alcotest.test_case "metrics endpoint cold->warm" `Quick
            test_serve_metrics_endpoint_cold_warm;
          Alcotest.test_case "dump_trace parented chain" `Quick
            test_serve_dump_trace_parented_chain;
          Alcotest.test_case "slow query logs one line" `Quick
            test_serve_slow_query_logs_one_line;
          Alcotest.test_case "chaos log file is JSON lines" `Quick
            test_serve_chaos_log_file_is_json_lines ] );
      ( "client",
        [ Alcotest.test_case "end to end" `Quick test_client_end_to_end;
          Alcotest.test_case "breaker opens + fails fast" `Quick
            test_client_breaker_opens_and_fails_fast ] )
    ]
