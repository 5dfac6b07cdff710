(* JSON-lines request/response codec for ccmx serve.

   Parsing is strict: unknown ops, missing fields, ragged matrices and
   oversized inputs are rejected with a message the daemon sends back
   verbatim, never an exception across the module boundary.  The codec
   deliberately knows nothing about sockets or caches — it maps lines
   to typed requests and replies to lines, and the same functions serve
   the daemon, the tests and the example client. *)

module Json = Commx_util.Json
module Bm = Commx_util.Bitmat
module Zm = Commx_linalg.Zmatrix
module B = Commx_bigint.Bigint

type request =
  | Ping
  | Stats
  | Shutdown
  | Dump_trace
  | Exact_cc of { matrix : Bm.t; use_cache : bool }
  | Singular of { matrix : Zm.t }
  | Lemma32 of { n : int; k : int; seed : int }
  | Lower_bounds of { matrix : Bm.t }
  | Protocol_run of { proto : string; n : int; k : int; seed : int; epsilon : float }
  | Rank_batch of { matrices : Bm.t array }

type envelope = {
  id : Json.t;
  op : string;
  deadline_ms : int option;
  req : request;
}

let max_matrix_side = 64
let max_batch_size = 1024

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let field obj key = Json.member key obj

let int_field ?default obj key =
  match (field obj key, default) with
  | Some (Json.Int v), _ -> v
  | None, Some d -> d
  | None, None -> bad "missing integer field %S" key
  | Some _, _ -> bad "field %S must be an integer" key

let float_field ?default obj key =
  match (field obj key, default) with
  | Some (Json.Float v), _ -> v
  | Some (Json.Int v), _ -> float_of_int v
  | None, Some d -> d
  | None, None -> bad "missing number field %S" key
  | Some _, _ -> bad "field %S must be a number" key

let bool_field ~default obj key =
  match field obj key with
  | Some (Json.Bool v) -> v
  | None -> default
  | Some _ -> bad "field %S must be a boolean" key

let string_field ?default obj key =
  match (field obj key, default) with
  | Some (Json.String s), _ -> s
  | None, Some d -> d
  | None, None -> bad "missing string field %S" key
  | Some _, _ -> bad "field %S must be a string" key

(* ["0110", "1001", ...] -> Bitmat, strictly rectangular, 0/1 only. *)
let bit_matrix_of_rows rows =
  let rows =
    List.map
      (function Json.String s -> s | _ -> bad "matrix rows must be strings")
      rows
  in
  match rows with
  | [] -> bad "matrix has no rows"
  | first :: _ ->
      let nr = List.length rows and nc = String.length first in
      if nc = 0 then bad "matrix has empty rows";
      if nr > max_matrix_side || nc > max_matrix_side then
        bad "matrix exceeds %dx%d wire limit" max_matrix_side max_matrix_side;
      if List.exists (fun r -> String.length r <> nc) rows then
        bad "matrix rows have unequal lengths";
      List.iter
        (String.iter (fun c ->
             if c <> '0' && c <> '1' then
               bad "matrix rows must contain only '0' and '1'"))
        rows;
      let a = Array.of_list rows in
      Bm.init nr nc (fun i j -> a.(i).[j] = '1')

let bit_matrix obj =
  match field obj "matrix" with
  | Some (Json.List l) -> bit_matrix_of_rows l
  | Some _ -> bad "field \"matrix\" must be a list of row strings"
  | None -> bad "missing field \"matrix\""

(* [["01","10"], ...] -> Bitmat array; every board is validated by the
   single-matrix rules, and the batch count itself is capped so one
   line cannot queue unbounded work. *)
let bit_matrices obj =
  let items =
    match field obj "matrices" with
    | Some (Json.List l) -> l
    | Some _ -> bad "field \"matrices\" must be a list of matrices"
    | None -> bad "missing field \"matrices\""
  in
  if List.length items > max_batch_size then
    bad "batch exceeds %d-matrix wire limit" max_batch_size;
  Array.of_list
    (List.map
       (function
         | Json.List rows -> bit_matrix_of_rows rows
         | _ -> bad "each matrix must be a list of row strings")
       items)

(* [[1, 2], ["-3", 4], ...] -> Zmatrix; entries are ints or decimal
   strings (bigints larger than a native int must come as strings). *)
let int_matrix obj =
  let entry = function
    | Json.Int v -> B.of_int v
    | Json.String s -> (
        try B.of_string s
        with _ -> bad "matrix entry %S is not a decimal integer" s)
    | _ -> bad "matrix entries must be integers or decimal strings"
  in
  let rows =
    match field obj "matrix" with
    | Some (Json.List l) -> l
    | Some _ -> bad "field \"matrix\" must be a list of rows"
    | None -> bad "missing field \"matrix\""
  in
  let rows =
    List.map
      (function
        | Json.List r -> Array.of_list (List.map entry r)
        | _ -> bad "matrix rows must be lists")
      rows
  in
  match rows with
  | [] -> bad "matrix has no rows"
  | first :: _ ->
      let nr = List.length rows and nc = Array.length first in
      if nc = 0 then bad "matrix has empty rows";
      if nr > max_matrix_side || nc > max_matrix_side then
        bad "matrix exceeds %dx%d wire limit" max_matrix_side max_matrix_side;
      if List.exists (fun r -> Array.length r <> nc) rows then
        bad "matrix rows have unequal lengths";
      let a = Array.of_list rows in
      Zm.init nr nc (fun i j -> a.(i).(j))

(* [n] and [k] of the seeded-instance ops.  The instance is 2n x 2n
   with k-bit entries and its work grows about as n^3, with no cancel
   token to stop it, so both are held to the matrix wire limits. *)
let max_k = 64

let instance_params obj =
  let n = int_field ~default:7 obj "n" and k = int_field ~default:2 obj "k" in
  if n > max_matrix_side / 2 then
    bad "n=%d exceeds the wire limit (2n <= %d)" n max_matrix_side;
  if k > max_k then bad "k=%d exceeds the %d-bit wire limit" k max_k;
  (n, k)

let request_of obj op =
  match op with
  | "ping" -> Ping
  | "stats" -> Stats
  | "shutdown" -> Shutdown
  | "dump_trace" -> Dump_trace
  | "exact_cc" ->
      Exact_cc
        { matrix = bit_matrix obj;
          use_cache = bool_field ~default:true obj "use_cache" }
  | "singular" -> Singular { matrix = int_matrix obj }
  | "lemma32" ->
      let n, k = instance_params obj in
      Lemma32 { n; k; seed = int_field ~default:0 obj "seed" }
  | "lower_bounds" -> Lower_bounds { matrix = bit_matrix obj }
  | "protocol" ->
      let n, k = instance_params obj in
      Protocol_run
        { proto = string_field ~default:"trivial" obj "protocol";
          n;
          k;
          seed = int_field ~default:0 obj "seed";
          epsilon = float_field ~default:0.01 obj "epsilon" }
  | "rank_batch" -> Rank_batch { matrices = bit_matrices obj }
  | other -> bad "unknown op %S" other

(* Optional per-request deadline, in milliseconds of wall budget from
   the moment the daemon parses the request.  0 or negative is a
   client bug worth rejecting loudly rather than an instant timeout. *)
let deadline_of obj =
  match field obj "deadline_ms" with
  | None -> None
  | Some (Json.Int v) ->
      if v <= 0 then bad "field \"deadline_ms\" must be > 0" else Some v
  | Some _ -> bad "field \"deadline_ms\" must be an integer"

let parse line =
  match Json.of_string line with
  | exception Failure msg -> Error (Json.Null, "malformed JSON: " ^ msg)
  | Json.Obj _ as obj -> (
      let id = Option.value (field obj "id") ~default:Json.Null in
      match field obj "op" with
      | Some (Json.String op) -> (
          try Ok { id; op; deadline_ms = deadline_of obj; req = request_of obj op }
          with Bad msg -> Error (id, msg))
      | Some _ -> Error (id, "field \"op\" must be a string")
      | None -> Error (id, "missing field \"op\""))
  | _ -> Error (Json.Null, "request must be a JSON object")

let ok ~id ~op fields =
  Json.Obj
    (("id", id) :: ("op", Json.String op) :: ("ok", Json.Bool true) :: fields)

let error ?code ?(fields = []) ~id msg =
  let tail =
    match code with
    | None -> fields
    | Some c -> ("code", Json.String c) :: fields
  in
  Json.Obj
    (("id", id) :: ("ok", Json.Bool false) :: ("error", Json.String msg)
    :: tail)

let error_code reply =
  match reply with
  | Json.Obj _ -> (
      match (Json.member "ok" reply, Json.member "code" reply) with
      | Some (Json.Bool false), Some (Json.String c) -> Some c
      | _ -> None)
  | _ -> None

let to_line doc = Json.to_string doc ^ "\n"
