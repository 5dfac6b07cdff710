(* The in-process op layer: what `Server.exec` does for each op the
   workloads send, call for call, with a span around every call into a
   library module.  It is both the answer oracle (its cacheable fields
   must equal the daemon's) and the traced layer replay (its spans give
   each layer's self time).  Spans are recorded here, outside the
   program; nothing in lib/ is instrumented. *)

module Json = Commx_util.Json
module Clock = Commx_util.Clock
module Prng = Commx_util.Prng
module Pool = Commx_util.Pool
module Tx = Commx_util.Txtable
module Bm = Commx_util.Bitmat
module B = Commx_bigint.Bigint
module Zm = Commx_linalg.Zmatrix
module E = Commx_comm.Exact_cc
module Protocol = Commx_comm.Protocol
module Truth_matrix = Commx_comm.Truth_matrix
module Rank_bound = Commx_comm.Rank_bound
module Params = Commx_core.Params
module H = Commx_core.Hard_instance
module Bounds = Commx_core.Bounds
module Halves = Commx_protocols.Halves
module Trivial = Commx_protocols.Trivial
module Wire = Commx_serve.Wire
module Tags = Commx_serve.Cache.Tags

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = { name : string; parent : string; start_ns : int; dur_ns : int }

type tracer = { mutable stack : string list; mutable spans : span list }

let tracer () = { stack = []; spans = [] }

let span tr name f =
  let parent = match tr.stack with p :: _ -> p | [] -> "" in
  tr.stack <- name :: tr.stack;
  let start_ns = Clock.now_ns () in
  let finish () =
    tr.stack <- List.tl tr.stack;
    tr.spans <-
      { name; parent; start_ns; dur_ns = Clock.now_ns () - start_ns } :: tr.spans
  in
  Fun.protect ~finally:finish f

(* ------------------------------------------------------------------ *)
(* Server.exec, op for op                                              *)
(* ------------------------------------------------------------------ *)

(* Worker state the daemon keeps per domain: a warm transposition table
   and the board-tag registry that salts its keys. *)
type worker = { table : Tx.t; tags : Tags.t }

let worker () = { table = Tx.create (); tags = Tags.create () }

(* Server.content_key's per-op keys (private to the server). *)
let bitmat_key m =
  let buf = Buffer.create 80 in
  Buffer.add_string buf (Printf.sprintf "%dx%d:" (Bm.rows m) (Bm.cols m));
  for i = 0 to Bm.rows m - 1 do
    if i > 0 then Buffer.add_char buf '.';
    for j = 0 to Bm.cols m - 1 do
      Buffer.add_char buf (if Bm.get m i j then '1' else '0')
    done
  done;
  Buffer.contents buf

let zmatrix_key m =
  let buf = Buffer.create 80 in
  Buffer.add_string buf (Printf.sprintf "%dx%d:" (Zm.rows m) (Zm.cols m));
  for i = 0 to Zm.rows m - 1 do
    for j = 0 to Zm.cols m - 1 do
      Buffer.add_string buf (B.to_string (Zm.get m i j));
      Buffer.add_char buf ','
    done
  done;
  Buffer.contents buf

let unsupported op = failwith ("perfbench: op not in any workload: " ^ op)

(* The daemon's dispatch step: content key, plus the board tag exact_cc
   searches salt their table keys with. *)
let content_key w (env : Wire.envelope) =
  match env.req with
  | Wire.Exact_cc { matrix; _ } ->
      let key = "exact_cc:" ^ E.canonical_key matrix in
      (key, Tags.tag w.tags key)
  | Wire.Singular { matrix } -> ("singular:" ^ zmatrix_key matrix, 0)
  | Wire.Lower_bounds { matrix } -> ("lower_bounds:" ^ bitmat_key matrix, 0)
  | Wire.Protocol_run { proto; n; k; seed; epsilon } ->
      (Printf.sprintf "protocol:%s:%d:%d:%d:%h" proto n k seed epsilon, 0)
  | _ -> unsupported env.op

let exec tr w (env : Wire.envelope) ~tag =
  let span name f = span tr name f in
  match env.req with
  | Wire.Exact_cc { matrix; _ } ->
      let cancel = Pool.Token.create () in
      let v, st =
        span "exact_cc.search" (fun () ->
            E.search ~table:w.table ~key_tag:tag ~cancel matrix)
      in
      ( [ ("value", Json.Int v);
          ("canon_rows", Json.Int st.E.canon_rows);
          ("canon_cols", Json.Int st.E.canon_cols);
          ("root_lower", Json.Int st.E.root_lower);
          ("root_upper", Json.Int st.E.root_upper) ],
        [ ("nodes", Json.Int st.E.nodes);
          ("table_hits", Json.Int st.E.table_hits);
          ("table_misses", Json.Int st.E.table_misses) ] )
  | Wire.Singular { matrix } ->
      if not (Zm.is_square matrix) then failwith "matrix is not square";
      let d = span "zmatrix.det" (fun () -> Zm.det matrix) in
      let rank = span "zmatrix.rank" (fun () -> Zm.rank matrix) in
      ( [ ("dimension", Json.Int (Zm.rows matrix));
          ("rank", Json.Int rank);
          ("det", Json.String (B.to_string d));
          ("singular", Json.Bool (B.is_zero d)) ],
        [] )
  | Wire.Lower_bounds { matrix } ->
      let nr = Bm.rows matrix and nc = Bm.cols matrix in
      let tm =
        span "truth_matrix.build" (fun () ->
            Truth_matrix.build (List.init nr Fun.id) (List.init nc Fun.id)
              (fun i j -> Bm.get matrix i j))
      in
      let r =
        span "rank_bound.analyze" (fun () ->
            Rank_bound.analyze tm ~exact_rect:(nr * nc <= 64))
      in
      ( [ ("gf2_rank", Json.Int r.Rank_bound.gf2);
          ("rational_rank", Json.Int r.Rank_bound.rational);
          ("log_rank_bits", Json.Float r.Rank_bound.log_rank);
          ("fooling_set", Json.Int r.Rank_bound.fooling);
          ("fooling_bits", Json.Float r.Rank_bound.fooling_bits);
          ("cover_bits", Json.Float r.Rank_bound.cover_bits);
          ("trivial_upper_bits", Json.Float r.Rank_bound.trivial_upper) ],
        [] )
  | Wire.Protocol_run { proto = "trivial" as proto; n; k; seed; _ } ->
      if not (Params.is_valid ~n ~k) then
        failwith (Printf.sprintf "invalid parameters n=%d k=%d" n k);
      let p = Params.make ~n ~k in
      let m =
        span "hard_instance.build" (fun () ->
            H.build_m p (H.random_free (Prng.create seed) p))
      in
      let alice, bob = span "halves.split" (fun () -> Halves.split_pi0 m) in
      let truth = span "zmatrix.is_singular" (fun () -> Zm.is_singular m) in
      let got, bits =
        span "protocol.execute" (fun () ->
            Protocol.execute (Trivial.singularity ~k) alice bob)
      in
      ( [ ("protocol", Json.String proto);
          ("answer", Json.Bool got);
          ("truth", Json.Bool truth);
          ("agrees", Json.Bool (got = truth));
          ("bits", Json.Int bits);
          ("trivial_upper_bits", Json.Int (Bounds.trivial_upper_bits ~n ~k)) ],
        [] )
  | _ -> unsupported env.op

type answer = {
  op : string;
  core : (string * Json.t) list;  (** the cacheable fields *)
  extra : (string * Json.t) list;  (** per-request fields (exact_cc) *)
  spans : span list;
}

(* One request line through every layer a daemon worker runs it
   through: wire parse, content key, compute, reply encode. *)
let answer w line =
  let tr = tracer () in
  let core, extra, op =
    span tr "exec" (fun () ->
        let env =
          match span tr "wire.parse" (fun () -> Wire.parse line) with
          | Ok env -> env
          | Error (_, msg) -> failwith ("perfbench: bad request line: " ^ msg)
        in
        let _key, tag = span tr "cache.key" (fun () -> content_key w env) in
        let core, extra = span tr "compute" (fun () -> exec tr w env ~tag) in
        span tr "wire.encode" (fun () ->
            ignore
              (Wire.to_line
                 (Wire.ok ~id:env.id ~op:env.op
                    (core @ extra
                    @ [ ("cache", Json.String "miss"); ("wall_us", Json.Int 0) ]))));
        (core, extra, env.op))
  in
  { op; core; extra; spans = List.rev tr.spans }

(* ------------------------------------------------------------------ *)
(* Answer check                                                        *)
(* ------------------------------------------------------------------ *)

let field_text reply key =
  Option.map Json.to_string (Json.member key reply)

(* Field-for-field equality of a daemon reply's cacheable fields with
   the direct engine call, plus invariants each answer must satisfy on
   its own.  [None] when the reply is right, else what is wrong. *)
let check (a : answer) reply =
  let diffs =
    List.filter_map
      (fun (k, v) ->
        let want = Json.to_string v in
        match field_text reply k with
        | Some got when got = want -> None
        | got ->
            Some
              (Printf.sprintf "%s: daemon %s, engine %s" k
                 (Option.value got ~default:"<missing>") want))
      a.core
  in
  let int k = match List.assoc_opt k a.core with Some (Json.Int v) -> v | _ -> -1 in
  let bool k = List.assoc_opt k a.core = Some (Json.Bool true) in
  let invariant =
    match a.op with
    | "exact_cc" ->
        if int "root_lower" <= int "value" && int "value" <= int "root_upper"
        then None
        else Some "value outside [root_lower, root_upper]"
    | "singular" ->
        let det_zero = List.assoc_opt "det" a.core = Some (Json.String "0") in
        if bool "singular" = det_zero && (int "rank" < int "dimension") = det_zero
        then None
        else Some "singular, det and rank disagree"
    | "lower_bounds" ->
        (* An odd GF(2) minor is a nonzero rational one. *)
        if int "gf2_rank" <= int "rational_rank" then None
        else Some "GF(2) rank exceeds rational rank"
    | "protocol" -> if bool "agrees" then None else Some "protocol disagrees with truth"
    | _ -> None
  in
  match (diffs, invariant) with
  | [], None -> None
  | d, i -> Some (String.concat "; " (d @ Option.to_list i))
