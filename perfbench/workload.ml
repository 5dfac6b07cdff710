(* The benchmark's workloads: seeded request streams for `ccmx serve`.

   Every stream is a pure function of (workload, seed, seconds).  The
   default mix is drawn through Commx_util.Traffic: the kind and a
   payload seed per request.  The daemon only ever sees the encoded
   lines.  Both workloads are closed loops over two connections. *)

module Json = Commx_util.Json
module Prng = Commx_util.Prng
module Traffic = Commx_util.Traffic
module Bm = Commx_util.Bitmat
module B = Commx_bigint.Bigint
module Zm = Commx_linalg.Zmatrix

type traffic =
  | Mix  (** default Traffic mix, every payload fresh *)
  | Search  (** exact_cc only: hard searches among pooled cheap boards *)

type t = {
  name : string;
  why : string;  (** one line; BENCHMARK.json repeats it verbatim *)
  traffic : traffic;
  max_rate : float;
      (** requests generated per measured second, a ceiling the daemon
          never reaches, so a run ends on time and not by running out
          of requests *)
  rss_after : int;
      (** the daemon's peak RSS is read once this many replies are in:
          a fixed amount of work, which even a slow run reaches, so a
          faster daemon is not charged for the memory of the extra
          requests it gets through (the exact-CC tables grow with every
          search) *)
}

let all =
  [ { name = "serve-mix";
      why =
        "default mix, every board distinct: zmatrix and rank_bound \
         compute-bound with a cold result cache; bypasses search and cache";
      traffic = Mix; max_rate = 4000.0; rss_after = 3000 };
    { name = "search";
      why =
        "exact_cc only on sparse 10x10 boards, one in 20 a real search, the \
         rest root-pruned from a skewed pool: search, txtable, result cache";
      traffic = Search; max_rate = 4000.0; rss_after = 1000 } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* Payloads                                                            *)
(* ------------------------------------------------------------------ *)

type payload =
  | Exact of Bm.t
  | Singular of Zm.t
  | Lower of Bm.t
  | Protocol of int  (** instance seed *)

(* Payload shapes of the default mix: 6x6 exact-CC boards, 8x8 8-bit
   integer boards (one in four rank-deficient, so both verdicts
   occur), 8x8 boolean boards for the rank/fooling/cover bounds, and
   the trivial singularity protocol on n=7, k=2 hard instances. *)
let mix_payload g kind =
  match kind with
  | Traffic.Exact_cc -> Exact (Bm.random g 6 6)
  | Traffic.Singular ->
      if Prng.int g 4 = 0 then
        Singular (Zm.random_of_rank g ~rows:8 ~cols:8 ~rank:7)
      else Singular (Zm.random_kbit g ~rows:8 ~cols:8 ~k:8)
  | Traffic.Lower_bounds -> Lower (Bm.random g 8 8)
  | Traffic.Protocol -> Protocol (Prng.int g 1_000_000)

(* The search workload.  Exact CC only searches where the lower-bound
   portfolio cannot match the trivial protocol at the root, which on
   random boards means canonical 9x9 or larger, and each such search
   costs tens of milliseconds to seconds.  Random searching boards are
   rare (one in 15 to 20 sparse 10x10 boards) and their cost too
   heavy-tailed for a steady run.  So one request in [hard_every]
   presents one of these fixed boards, in turn, under a fresh row and
   column permutation (equal CC, a different literal board and
   canonical key, hence a cold table).  They are sparse random 10x10
   boards of density 0.17 that the engine searched in 65 to 105 ms on
   average over permutations when the benchmark was written; being
   fixed, any later change to the engine is measured on the same
   boards. *)
let hard_boards =
  [|
    "0010000001 0000100010 0000010000 1100000000 0000001000 0000000000 0000101010 0000000010 0001000001 0000001000";
    "0001010000 1000000000 1110010010 0100000000 0000000001 0000001100 0000001000 0000000100 0000000000 0000000000";
    "0000000000 0010000000 1000000000 0000100010 0100100000 0000001000 0011010000 1011010000 0000000000 0010000100";
    "0001100000 0000000110 0000001100 1100000000 0000001000 1010000000 0000000001 0000000100 0000000100 0000000000";
    "0000000000 0000000000 1000000100 0000000010 0000000001 0010000000 0000100010 1000001000 0001001000 0010000001";
    "0010000000 0000111000 0000110000 0100000010 0000001000 0000000100 0000000000 0001000010 0000100000 0000000100";
    "0010000000 0100100000 0010000001 0000010001 0100000100 0000000010 0000000000 0011001001 0000000001 0000000000";
    "0000001010 0000000100 0000100000 0000110000 0000000100 0000000000 0000010000 0100000000 1110001000 0001000000";
  |]

let hard_every = 20

(* The hard board of block [b]: its permutation depends on [b] alone, so
   every run searches the same boards in the same order and run-to-run
   spread stays that of the machine, not of the boards. *)
let hard_board b =
  let rows =
    Array.of_list
      (String.split_on_char ' ' hard_boards.(b mod Array.length hard_boards))
  in
  let h = Prng.create b in
  let rp = Array.init 10 Fun.id and cp = Array.init 10 Fun.id in
  Prng.shuffle h rp;
  Prng.shuffle h cp;
  Bm.init 10 10 (fun r c -> rows.(rp.(r)).[cp.(c)] = '1')

(* The other requests come from a pool of boards drawn like the hard
   ones (sparse random 10x10, density 0.17) but kept only when the
   lower-bound portfolio meets the trivial upper bound, so the engine
   answers them at the root without expanding a node, like the 571 of
   600 boards that did not search in a first prototype of this
   workload.  The pool is sized
   like the daemon's default 1024-entry FIFO result cache and drawn
   with Zipf popularity.  A share of draws present a pooled board as a
   variant with the same CC but a different literal board: a row or
   column permutation or the transpose (each a new canonical key
   today), or the complement (the same canonical key, so a cache hit).
   Hits then sit beside misses, inserts and evictions.

   Where each figure comes from:
   - [hard_every] = 20: the prototype searched 29 of 600 fresh sparse
     10x10 boards, about one in 20.
   - size 10x10 and [density] 0.17: the prototype's boards, and those
     the hard boards were drawn from.
   - [pool_size] 1024: the default result-cache capacity.
   - [zipf_exponent] 1.0 and [variant_share] 0.3: chosen, not measured;
     nothing in the repository records how popular boards are or how
     often clients send an equivalent variant.  The result-cache hit
     ratio this workload shows follows from these two picks; it is not
     a property of any real client's traffic. *)
let side = 10
let density = 0.17
let pool_size = 1024
let zipf_exponent = 1.0
let variant_share = 0.3

let ceil_log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

(* The engine answers [m] at the root: its best certified lower bound
   reaches the trivial protocol's cost on the canonical board. *)
let root_pruned m =
  let r, c = Commx_comm.Exact_cc.canonical_dims m in
  let lb =
    List.fold_left (fun a (_, v) -> max a v) 0
      (Commx_comm.Exact_cc.lower_bound_portfolio m)
  in
  lb >= ceil_log2 (min r c) + 1

let variant g v m =
  let perm n =
    let a = Array.init n Fun.id in
    Prng.shuffle g a;
    a
  in
  let r = Bm.rows m and c = Bm.cols m in
  match v with
  | 0 ->
      let p = perm r in
      Bm.init r c (fun i j -> Bm.get m p.(i) j)
  | 1 ->
      let p = perm c in
      Bm.init r c (fun i j -> Bm.get m i p.(j))
  | 2 -> Bm.transpose m
  | _ -> Bm.init r c (fun i j -> not (Bm.get m i j))

(* One request in each block of [hard_every] is hard, at a random
   offset: the daemon routes exact_cc by the sequence number of the
   board's canonical key, so a fixed stride would send every hard board
   to the same worker. *)
let search_stream g count =
  let rec pruned_board () =
    let m = Bm.init side side (fun _ _ -> Prng.float g < density) in
    if root_pruned m then m else pruned_board ()
  in
  let pool =
    Array.init pool_size (fun _ ->
        let base = pruned_board () in
        Array.init 5 (fun v -> if v = 0 then base else variant g (v - 1) base))
  in
  let cdf = Array.make pool_size 0.0 in
  let acc = ref 0.0 in
  for r = 0 to pool_size - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) zipf_exponent);
    cdf.(r) <- !acc
  done;
  let draw () =
    let u = Prng.float g *. !acc in
    let lo = ref 0 and hi = ref (pool_size - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) <= u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let hard_at = ref 0 in
  Array.init count (fun i ->
      if i mod hard_every = 0 then hard_at := i + Prng.int g hard_every;
      if i = !hard_at then Exact (hard_board (i / hard_every))
      else
        let v = if Prng.float g < variant_share then 1 + Prng.int g 4 else 0 in
        Exact pool.(draw ()).(v))

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let bit_rows m =
  Json.List
    (List.init (Bm.rows m) (fun i ->
         Json.String
           (String.init (Bm.cols m) (fun j -> if Bm.get m i j then '1' else '0'))))

let op_name = function
  | Exact _ -> "exact_cc"
  | Singular _ -> "singular"
  | Lower _ -> "lower_bounds"
  | Protocol _ -> "protocol"

(* The request object without its id: the content every repeat of a
   payload shares, and the answer checker's memo key. *)
let body p =
  let fields =
    match p with
    | Exact m | Lower m -> [ ("matrix", bit_rows m) ]
    | Singular m ->
        [ ( "matrix",
            Json.List
              (List.init (Zm.rows m) (fun i ->
                   Json.List
                     (List.init (Zm.cols m) (fun j ->
                          Json.Int (B.to_int (Zm.get m i j)))))) ) ]
    | Protocol seed ->
        [ ("protocol", Json.String "trivial"); ("n", Json.Int 7);
          ("k", Json.Int 2); ("seed", Json.Int seed) ]
  in
  Json.to_string (Json.Obj (("op", Json.String (op_name p)) :: fields))

type request = {
  op : string;
  body : string;
  line : string;  (** [body] with ["id"] prepended, newline-terminated *)
}

let line_of ~id body =
  Printf.sprintf "{\"id\":%d,%s\n" id (String.sub body 1 (String.length body - 1))

let stream w ~seed ~seconds =
  let count = int_of_float (w.max_rate *. seconds) in
  let payloads =
    match w.traffic with
    | Mix ->
        Traffic.stream ~seed ~mix:Traffic.default_mix
          ~arrival:(Traffic.Closed { concurrency = 2 }) ~count
        |> Array.map (fun (r : Traffic.request) ->
               mix_payload (Prng.create r.seed) r.kind)
    | Search -> search_stream (Prng.create seed) count
  in
  Array.mapi
    (fun i p ->
      let b = body p in
      { op = op_name p; body = b; line = line_of ~id:i b })
    payloads
