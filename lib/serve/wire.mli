(** JSON-lines wire protocol of the [ccmx serve] daemon.

    One request per line, one reply per line, replies in request order
    per connection.  Every request is a JSON object with an ["op"]
    field selecting the query and an optional ["id"] the daemon echoes
    back verbatim (so a pipelining client can match replies however it
    likes even though order already suffices).  Replies carry
    ["ok": true] plus op-specific fields, or ["ok": false] with an
    ["error"] string.  The full request/response schemas are documented
    in EXPERIMENTS.md; this module is the single point that parses and
    prints them, so tests, the daemon and the example client cannot
    drift apart. *)

type request =
  | Ping
  | Stats
  | Shutdown
  | Dump_trace
      (** Dump the daemon's flight recorder: the reply's ["trace"]
          field is a Chrome trace-event document of the recent
          requests' parented queue-wait/search/reply-write spans. *)
  | Exact_cc of { matrix : Commx_util.Bitmat.t; use_cache : bool }
      (** Exact deterministic CC of a boolean truth matrix
          (rows of ['0']/['1'] strings).  [use_cache = false] bypasses
          the result cache while still using the warm transposition
          table — the knob the warm-table tests and benchmarks use. *)
  | Singular of { matrix : Commx_linalg.Zmatrix.t }
      (** Exact singularity / rank / determinant of an integer matrix
          (entries as ints or decimal strings). *)
  | Lemma32 of { n : int; k : int; seed : int }
      (** Lemma 3.2 spot check on the seeded random hard instance:
          criterion vs. ground truth.  The 2n x 2n instance is held to
          the matrix wire limit ([2n <= max_matrix_side]) and [k <= 64];
          the same limits apply to [Protocol_run]. *)
  | Lower_bounds of { matrix : Commx_util.Bitmat.t }
      (** Fooling-set and rank lower bounds ({!Commx_comm.Rank_bound}
          report) of a boolean matrix. *)
  | Protocol_run of {
      proto : string;  (** ["trivial"] or ["fingerprint"] *)
      n : int;
      k : int;
      seed : int;
      epsilon : float;
    }  (** Run a singularity protocol on the seeded instance and count
          bits through the channel. *)
  | Rank_batch of { matrices : Commx_util.Bitmat.t array }
      (** GF(2) ranks of many boolean matrices in one request
          ([{"matrices": [["01","10"], ...]}]), answered by the
          amortized {!Commx_util.Bitmat.rank_batch} kernel — one
          round trip and one cache entry for the whole batch. *)

type envelope = {
  id : Commx_util.Json.t;
  op : string;
  deadline_ms : int option;
      (** optional per-request wall budget in milliseconds, counted
          from the moment the daemon parses the request; [None] leaves
          the server-side default in force *)
  req : request;
}

val max_matrix_side : int
(** Hard cap (64) on rows and columns of matrices accepted over the
    wire, bounding per-request work before any handler runs. *)

val max_batch_size : int
(** Hard cap (1024) on the number of matrices in one [rank_batch]
    request, for the same reason. *)

val parse : string -> (envelope, Commx_util.Json.t * string) result
(** Parse one request line.  [Error (id, msg)] carries the request id
    when one could be recovered (so the error reply still correlates)
    and a message fit to send back verbatim. *)

val ok : id:Commx_util.Json.t -> op:string ->
  (string * Commx_util.Json.t) list -> Commx_util.Json.t
(** Success reply: [{"id": .., "op": .., "ok": true, ..fields}]. *)

val error :
  ?code:string ->
  ?fields:(string * Commx_util.Json.t) list ->
  id:Commx_util.Json.t ->
  string ->
  Commx_util.Json.t
(** Failure reply: [{"id": .., "ok": false, "error": msg}], plus
    ["code"] when [?code] is given and any extra [?fields].  The
    machine-readable codes the daemon uses — ["timed_out"] (with
    ["lower_bound"]/["upper_bound"] fields when the search certified
    bounds), ["overloaded"], ["worker_crashed"], ["line_too_long"],
    ["too_large"] (exact_cc whose {e canonical} board exceeds the
    engine cap, rejected at admission with
    ["canon_rows"]/["canon_cols"]/["limit"] fields) — let clients
    branch without parsing English; errors without a code are request
    rejections (parse/validation). *)

val error_code : Commx_util.Json.t -> string option
(** The ["code"] of a failure reply, if the reply is a failure and
    carries one — the client-side dual of [error ?code]. *)

val to_line : Commx_util.Json.t -> string
(** Compact serialization plus the terminating newline. *)
