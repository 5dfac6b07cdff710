(** Log-rank communication lower bounds.

    Mehlhorn–Schmidt: the deterministic communication complexity of a
    boolean function is at least [log2 rank(M_f)] where the rank is
    taken over any field (the rational rank gives the strongest
    bound; GF(2) rank is cheaper and also valid).  Used alongside the
    rectangle-cover and fooling-set bounds to certify the lower-bound
    side of Theorem 1.1 at enumerable sizes. *)

val gf2_rank : Commx_util.Bitmat.t -> int
(** Rank of the 0/1 truth matrix over GF(2). *)

val rational_rank : Commx_util.Bitmat.t -> int
(** Rank of the 0/1 truth matrix over ℚ (>= GF(2) rank).

    When the smaller side is at most 22 this is one fraction-free
    (Bareiss) elimination on native ints, with no bignum or rational
    arithmetic.  Exactness rests on Hadamard's inequality: every
    intermediate of a Bareiss elimination is a minor of the input, and
    a k x k minor of a 0/1 matrix is at most (k+1)^((k+1)/2) / 2^k in
    magnitude.  At k = 22 that is below 2^30.1, so each product of two
    minors stays below 2^60.1 and their difference below 2^61.1, inside
    OCaml's 63-bit ints; at k = 23 the bound passes 2^32 and a product
    could overflow.  The limit is therefore a correctness guard, not a
    tuning knob.  Past it the rank comes from
    {!Commx_linalg.Zmatrix.det_rank} (bignum Bareiss), never from
    elimination over ℚ: on a 64 x 64 board, the largest the serve wire
    accepts, that is tens of milliseconds against most of a second. *)

val log_rank_bound : Commx_util.Bitmat.t -> float
(** [log2 (rational rank)], a communication lower bound in bits
    (0 for rank-0 matrices). *)

type report = {
  n_rows : int;
  n_cols : int;
  ones : int;
  gf2 : int;
  rational : int;
  log_rank : float;
  fooling : int;  (** best fooling-set size found *)
  fooling_bits : float;
  cover_bits : float;  (** rectangle-cover partition bound, exact *)
  trivial_upper : float;  (** log2 min(rows, cols): cost of sending one whole side *)
}

val analyze : ('a, 'b) Truth_matrix.t -> exact_rect:bool -> report
(** One-stop lower-bound report for an explicit truth matrix.  With
    [~exact_rect:false], the cover bound uses the greedy rectangle
    heuristic and is reported as an estimate. *)

val pp_report : Format.formatter -> report -> unit
