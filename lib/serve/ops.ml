(* The op layer, shared by the daemon's workers and `ccmx bench load`.
   Pure apart from the caller's transposition table. *)

module Json = Commx_util.Json
module Bm = Commx_util.Bitmat
module Prng = Commx_util.Prng
module Zm = Commx_linalg.Zmatrix
module B = Commx_bigint.Bigint
module Params = Commx_core.Params
module H = Commx_core.Hard_instance
module L32 = Commx_core.Lemma32
module E = Commx_comm.Exact_cc
module Protocol = Commx_comm.Protocol
module Rank_bound = Commx_comm.Rank_bound
module Trivial = Commx_protocols.Trivial

type fields = (string * Json.t) list

let bitmat_key m =
  Printf.sprintf "%dx%d:%s" (Bm.rows m) (Bm.cols m)
    (String.concat "."
       (List.init (Bm.rows m) (fun i ->
            Commx_util.Bitvec.to_string (Bm.row m i))))

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

let content_key (req : Wire.request) =
  match req with
  | Wire.Ping | Wire.Stats | Wire.Shutdown | Wire.Dump_trace -> None
  | Wire.Exact_cc { matrix; _ } ->
      (* Canonical, not literal: boards that differ only by duplicated
         rows or columns, or by complementing a board whose ones are
         the majority, alias.  Row/column order is kept, so permuted
         and transposed boards get distinct keys. *)
      Some ("exact_cc:" ^ E.canonical_key matrix)
  | Wire.Singular { matrix } -> Some ("singular:" ^ zmatrix_key matrix)
  | Wire.Lemma32 { n; k; seed } ->
      Some (Printf.sprintf "lemma32:%d:%d:%d" n k seed)
  | Wire.Lower_bounds { matrix } -> Some ("lower_bounds:" ^ bitmat_key matrix)
  | Wire.Protocol_run { proto; n; k; seed; epsilon } ->
      Some (Printf.sprintf "protocol:%s:%d:%d:%d:%h" proto n k seed epsilon)
  | Wire.Rank_batch { matrices } ->
      Some
        ("rank_batch:"
        ^ String.concat "|"
            (Array.to_list (Array.map bitmat_key matrices)))

let search_fields ~nodes ~table_hits ~table_misses =
  [ ("nodes", Json.Int nodes); ("table_hits", Json.Int table_hits);
    ("table_misses", Json.Int table_misses) ]

let cache_field label = ("cache", Json.String label)
let wall_us_field us = ("wall_us", Json.Int us)

let not_cacheable =
  [ "id"; "op"; "ok"; "nodes"; "table_hits"; "table_misses"; "cache";
    "wall_us" ]

let cacheable = function
  | Json.Obj fs -> List.filter (fun (k, _) -> not (List.mem k not_cacheable)) fs
  | _ -> []

let require_params ~n ~k =
  if not (Params.is_valid ~n ~k) then
    failwith (Printf.sprintf "invalid parameters n=%d k=%d" n k);
  Params.make ~n ~k

let exec ~table ~key_tag ?cancel (req : Wire.request) =
  match req with
  | Wire.Ping | Wire.Stats | Wire.Shutdown | Wire.Dump_trace ->
      invalid_arg "Ops.exec: not a compute op"
  | Wire.Exact_cc { matrix; _ } ->
      let v, st = E.search ~table ~key_tag ?cancel matrix in
      ( [ ("value", Json.Int v);
          ("canon_rows", Json.Int st.E.canon_rows);
          ("canon_cols", Json.Int st.E.canon_cols);
          ("root_lower", Json.Int st.E.root_lower);
          ("root_upper", Json.Int st.E.root_upper) ],
        search_fields ~nodes:st.E.nodes ~table_hits:st.E.table_hits
          ~table_misses:st.E.table_misses )
  | Wire.Singular { matrix } ->
      if not (Zm.is_square matrix) then failwith "matrix is not square";
      let rank, d = Zm.det_rank matrix in
      ( [ ("dimension", Json.Int (Zm.rows matrix));
          ("rank", Json.Int rank);
          ("det", Json.String (B.to_string d));
          ("singular", Json.Bool (B.is_zero d)) ],
        [] )
  | Wire.Lemma32 { n; k; seed } ->
      let p = require_params ~n ~k in
      let g = Prng.create seed in
      let f = H.random_free g p in
      let crit = L32.criterion p f in
      let direct = L32.is_singular_direct (H.build_m p f) in
      ( [ ("criterion", Json.Bool crit);
          ("direct", Json.Bool direct);
          ("agrees", Json.Bool (crit = direct)) ],
        [] )
  | Wire.Lower_bounds { matrix } ->
      let nr = Bm.rows matrix and nc = Bm.cols matrix in
      let tm =
        Commx_comm.Truth_matrix.build (List.init nr Fun.id)
          (List.init nc Fun.id) (Bm.get matrix)
      in
      (* The exact rectangle-cover bound enumerates covers; keep it to
         boards small enough that it cannot stall a worker. *)
      let r = Rank_bound.analyze tm ~exact_rect:(nr * nc <= 64) in
      ( [ ("gf2_rank", Json.Int r.Rank_bound.gf2);
          ("rational_rank", Json.Int r.Rank_bound.rational);
          ("log_rank_bits", Json.Float r.Rank_bound.log_rank);
          ("fooling_set", Json.Int r.Rank_bound.fooling);
          ("fooling_bits", Json.Float r.Rank_bound.fooling_bits);
          ("cover_bits", Json.Float r.Rank_bound.cover_bits);
          ("trivial_upper_bits", Json.Float r.Rank_bound.trivial_upper) ],
        [] )
  | Wire.Protocol_run { proto; n; k; seed; epsilon } ->
      let p = require_params ~n ~k in
      let g = Prng.create seed in
      let m = H.build_m p (H.random_free g p) in
      let alice, bob = Commx_protocols.Halves.split_pi0 m in
      let truth = Zm.is_singular m in
      let got, bits =
        match proto with
        | "trivial" -> Protocol.execute (Trivial.singularity ~k) alice bob
        | "fingerprint" ->
            let rp = Commx_protocols.Fingerprint.singularity ~n ~k ~epsilon in
            Protocol.execute
              (rp.Commx_comm.Randomized.run_seeded ~seed:(seed + 1))
              alice bob
        | other -> failwith (Printf.sprintf "unknown protocol %S" other)
      in
      ( [ ("protocol", Json.String proto);
          ("answer", Json.Bool got);
          ("truth", Json.Bool truth);
          ("agrees", Json.Bool (got = truth));
          ("bits", Json.Int bits);
          ( "trivial_upper_bits",
            Json.Int (Commx_core.Bounds.trivial_upper_bits ~n ~k) ) ],
        [] )
  | Wire.Rank_batch { matrices } ->
      let ranks = Bm.rank_batch matrices in
      ( [ ( "values",
            Json.List (Array.to_list (Array.map (fun v -> Json.Int v) ranks))
          );
          ("count", Json.Int (Array.length ranks)) ],
        [] )
