(** Tolerant floating-point comparisons and small numeric helpers.

    All feasibility checks in the library go through these functions so
    that accumulated rounding error never flips a constraint verdict. *)

val default_eps : float
(** Default absolute tolerance, [1e-9]. *)

val approx_equal : ?eps:float -> float -> float -> bool
(** [approx_equal a b] is true when [|a - b| <= eps * max(1, |a|, |b|)]. *)

val leq : ?eps:float -> float -> float -> bool
(** [leq a b] is [a <= b] up to tolerance: true when [a <= b + eps * scale]. *)

val geq : ?eps:float -> float -> float -> bool
(** [geq a b] is [b <= a] up to tolerance. *)

val lt : ?eps:float -> float -> float -> bool
(** Strictly less, with tolerance: [a < b] and not [approx_equal a b]. *)

val gt : ?eps:float -> float -> float -> bool
(** Strictly greater, with tolerance. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] forces [x] into the closed interval [[lo, hi]].
    Requires [lo <= hi]. *)

val log2 : float -> float
(** Base-2 logarithm. *)

val sum : float array -> float
(** Numerically plain left-to-right sum. *)

val kahan_sum : float array -> float
(** Compensated (Kahan) summation; preferred when accumulating many
    small terms into a large total. *)

val fmin_array : float array -> float
(** Minimum of a non-empty array. @raise Invalid_argument on empty. *)

val fmax_array : float array -> float
(** Maximum of a non-empty array. @raise Invalid_argument on empty. *)
