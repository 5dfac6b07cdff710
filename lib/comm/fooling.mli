(** Fooling sets.

    A 1-fooling set is a set of input pairs \{(x_i, y_i)\} with
    [f x_i y_i = true] for all [i] and, for every [i <> j],
    [f x_i y_j = false] or [f x_j y_i = false].  No two elements of a
    fooling set can share a monochromatic rectangle, so communication
    is at least [log2 |S|].  This is the "transitivity approach of
    Vuillemin" the paper contrasts itself against: it works for the
    identity problem (experiment E11) but cannot reach Θ(k n²) for
    singularity — our experiments make that gap visible. *)

type t = (int * int) list
(** Pairs of (row index, column index) into a truth matrix. *)

val is_fooling_set : ('a, 'b) Truth_matrix.t -> t -> bool
(** Validity check against the definition. *)

val greedy : ('a, 'b) Truth_matrix.t -> t
(** Deterministic greedy construction scanning ones in row-major
    order; always valid, not necessarily maximal. *)

val greedy_bitmat : Commx_util.Bitmat.t -> t
(** {!greedy} on a bare 0/1 matrix. *)

val greedy_randomized :
  Commx_util.Prng.t -> ?restarts:int -> ('a, 'b) Truth_matrix.t -> t
(** Best of {!greedy} and [restarts] greedy passes over successive
    shuffles of the cells (one {!Commx_util.Prng.shuffle} of all
    [rows * cols] cells per restart); ties keep the earlier set.  The
    deterministic pass is returned in scan order, a restart's set
    newest pair first. *)

val diagonal_candidate : ('a, 'b) Truth_matrix.t -> t
(** The diagonal \{(i, i)\} filtered to one entries — the natural
    candidate when rows and columns are indexed by the same set (the
    identity problem's canonical fooling set).  Validity must still be
    checked with {!is_fooling_set}. *)

val lower_bound_bits : t -> float
(** [log2 (max 1 |S|)]. *)

val largest_identity_embedding : ('a, 'b) Truth_matrix.t -> t
(** The largest *induced identity*: pairs \{(x_i, y_i)\} with
    [f x_i y_i = 1] and [f x_i y_j = 0] for every [i <> j] in *both*
    orders — the structure Vuillemin's transitivity argument needs.
    Every identity embedding is a fooling set but not conversely.
    Exact branch-and-bound (intended for truth matrices with at most a
    few hundred ones); the paper's point is that singularity admits
    only small ones. *)

val is_identity_embedding : ('a, 'b) Truth_matrix.t -> t -> bool
