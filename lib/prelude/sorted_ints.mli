(** Sorted dynamic integer sets.

    A growable vector of distinct ints kept in ascending order:
    membership and rank by binary search, insert/remove by shifting
    the tail.
    The engine uses these for sparse index sets whose *iteration order
    must be a function of the member set alone* — e.g. the per-stream
    interested-slot sets the planner accumulates floats over. A hash
    table iterates in insertion-history order (so a snapshot-restored
    set would sum in a different order than the live set it mirrors and
    crash recovery would diverge in the last ulp); a bitset iterates
    ascending but costs a full scan of the universe per traversal.
    Sorted vectors give ascending order at cost proportional to the
    membership, which is what makes million-slot views affordable when
    each stream only interests a few hundred slots.

    Not thread-safe; confine each set to one writer. *)

type t

val create : unit -> t
(** The empty set. *)

val of_sorted_array : int array -> t
(** Adopt an ascending array of distinct ints (copied).
    @raise Invalid_argument when unsorted or containing duplicates. *)

val length : t -> int
val is_empty : t -> bool

val mem : t -> int -> bool

val index : t -> int -> int
(** Rank of the element: [index t x] is the position of [x] in
    ascending order, or [-1] when absent. *)

val get : t -> int -> int
(** [get t i] is the [i]-th smallest element.
    @raise Invalid_argument when [i] is out of range. *)

val add : t -> int -> bool
(** Insert; false (and no change) when already present. *)

val remove : t -> int -> bool
(** Delete; false (and no change) when absent. *)

val clear : t -> unit
(** Empty the set, keeping the capacity. *)

val iter : t -> (int -> unit) -> unit
(** Ascending order. The callback must not mutate the set. *)

val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Ascending order. *)

val to_list : t -> int list
(** Ascending. *)

val copy : t -> t

val equal : t -> t -> bool
(** Same members (hence same iteration order). *)
