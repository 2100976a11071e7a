(** Imperative binary min-heap.

    Used by the discrete-event simulator (event queue ordered by time)
    and by greedy algorithms (priority by cost-effectiveness, negated). *)

type 'a t
(** Min-heap of elements of type ['a]. *)

val create : cmp:('a -> 'a -> int) -> 'a t
(** Empty heap with the given total order ([cmp a b < 0] means [a] has
    higher priority, i.e., is popped first). *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Insert an element. Amortized [O(log n)]. *)

val peek : 'a t -> 'a option
(** Smallest element, without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** Like {!pop}. @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit
(** Remove all elements. *)

val to_sorted_list : 'a t -> 'a list
(** Drain a copy of the heap in priority order; the heap is unchanged. *)
