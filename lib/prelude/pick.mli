(** The greedy's pick order: cost-effectiveness [w / c], compared
    exactly.

    An entry is a marginal [w] and a cost [c]. Every greedy in the
    library, the §2.1 greedy, the budgeted submodular greedy and the
    engine planner, ranks its candidates by this one order. Costs are
    finite and nonnegative, and no argument is NaN.

    The order compares the exact rationals [w / c] without dividing:
    [w·c' > w'·c], with no rounding anywhere, so it is transitive. A
    zero-cost entry with a positive marginal outranks every entry with
    a positive cost, the larger marginal first. A zero-cost entry
    without one counts as effectiveness 0, like an entry with a
    positive cost and marginal 0. {!better} is a strict weak order,
    and {!precedes}, which breaks its ties toward the lower id, is a
    strict total order on distinct ids. So a scan, a heap that sifts
    any way, and a lazy heap all pick the same entry. *)

val better : float -> float -> float -> float -> bool
(** [better w c w' c']: the entry [(w, c)] is strictly more
    cost-effective than [(w', c')]. *)

val precedes : float -> float -> int -> float -> float -> int -> bool
(** [precedes w c s w' c' s']: entry [s] is picked before entry [s'],
    more cost-effective or, as effective, of the lower id. *)

val precedes_in : float array -> float array -> int -> int -> bool
(** [precedes_in w c a b] is
    [precedes w.(a) c.(a) a w.(b) c.(b) b]. A caller in another module
    passes arrays and ids, so the floats are read and compared here,
    unboxed, even where calls across modules are not inlined. *)

(** {1 A heap of ids in pick order}

    [ids.(0 .. len - 1)] is a binary heap of ids keyed by [w.(id)] and
    [c.(id)], whose root {!precedes} every other entry. The sifts live
    here so that their comparisons are inlined next to the float
    reads. *)

val sift_up : float array -> float array -> int array -> int -> unit
(** [sift_up w c ids i] moves [ids.(i)] toward the root until its
    parent precedes it: after [ids.(i)] was appended or its key rose. *)

val sift_down : float array -> float array -> int array -> int -> int -> unit
(** [sift_down w c ids len i] moves [ids.(i)] toward the leaves of the
    heap [ids.(0 .. len - 1)] until it precedes both children: after
    its key fell or it replaced the root. *)
