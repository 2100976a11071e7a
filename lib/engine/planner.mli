(** Incremental plan state and the CELF-style lazy-greedy core.

    A planner owns the current plan over a {!View.t}: which streams
    the server transmits, which active slot receives which stream, and
    the residual budgets/capacities — all maintained incrementally.

    {!extend} grows the plan greedily by capped-marginal-utility per
    normalized server cost. In [`Lazy] mode it keeps a max-heap of
    {e upper bounds} on each candidate's marginal utility and
    re-evaluates only entries that surface at the top
    (Minoux/CELF lazy evaluation, exact because the capped objective's
    marginals never increase as the plan grows); [`Eager] mode
    re-evaluates every candidate every round. Both modes pick by
    {!Prelude.Pick}'s order (exact effectiveness, ties to the lower
    stream id), a strict total order, so they produce the {e same}
    plan by construction — [`Eager] exists as the reference for
    counting how many evaluations laziness saves.

    The heap bounds are scratch state of one {!extend}: {!reset}
    seeds them, and nothing between replans reads or keeps them. So
    are the per-stream lists of incidence entries that can still add
    to a marginal: an entry that fails a capacity or residual test
    once in an extend fails at every later evaluation of that extend,
    so later evaluations walk only the entries that passed. The
    static bounds {!reset} seeds from are kept, with the
    {!View.version} they were computed at, and recomputed only when
    the view has changed since.

    The [note_*] functions absorb churn between replans, keeping the
    plan feasible:
    - a join delivers already-transmitted streams to the new slot
      (free at the server);
    - a leave removes the slot's deliveries;
    - cost/budget changes evict the least effective streams until the
      budgets hold again.

    All evaluation is in terms of the paper's capped objective
    [w(A) = Σ_u min(W_u, w_u(A(u)))], restricted to feasible
    deliveries ([extend] never overflows a capacity or budget). *)

type t

type mode = Lazy | Eager

val create : View.t -> t
(** Empty plan over the view. *)

val reset : t -> unit
(** Drop the whole plan and re-seed every candidate bound with its
    static upper bound [Σ_u min(w_u(S), W_u)]. The static bounds are
    recomputed only if the view has changed since they last were. *)

val set_pinned : t -> int list -> unit
(** Streams that repairs evict only as a last resort (live sessions). *)

val pinned : t -> int list

(** {1 Plan inspection} *)

val is_admitted : t -> int -> bool
val admitted : t -> int list
(** Streams currently transmitted, ascending. *)

val delivered : t -> int -> int list
(** Streams delivered to a slot, ascending. *)

val assignment : t -> Mmd.Assignment.t
(** Snapshot over all [View.num_slots] slots. *)

val utility : t -> float
(** Capped objective of the current plan, maintained incrementally. *)

val server_used : t -> int -> float
(** Current consumption of server measure [i]. *)

val evals : t -> int
(** Marginal-utility evaluations performed so far. *)

val eager_equiv : t -> int
(** Evaluations an eager greedy would have performed for the same
    confirmations — the baseline for "evals saved". *)

(** {1 Planning} *)

val admit : t -> int -> bool
(** Force-admit a stream if it fits the residual budgets; delivers it
    to every active slot with positive residual utility and capacity.
    Returns false (and does nothing) when it does not fit or is
    already admitted. *)

val extend : ?mode:mode -> t -> unit
(** Greedily admit streams until no candidate has positive marginal
    utility or none fits the budgets. Default [`Lazy]. Call it after
    {!reset} (and any {!admit}s): it reads the bounds [reset] seeds.
    It stops as soon as no remaining candidate fits the residual
    budgets, without evaluating them: budget use only grows within
    one extend, so none of them could be admitted later. *)

val best_single : t -> (int * float) option
(** The stream with the largest {e achievable} stand-alone capped
    utility — what [reset; admit s] would deliver: 0 if the stream
    does not fit the budgets, and [Σ min(w_u(s), W_u)] over the active
    interested slots whose capacity fits the stream's load from empty.
    Every interested slot's capacity fits the stream's load (the view
    gives an interest that exceeds it zero utility), so that sum is
    the static bound, and it is read from the static bounds of the
    last {!reset}, bit for bit, in O(streams × m). They are recomputed
    first if the view has changed since. Ties go to the lower stream
    id. This is the [A_max] of §2.2; the controller's solve restarts
    from this stream whenever the greedy plan lands below it. [None]
    when the view has no streams. *)

(** {1 Churn repairs} *)

val note_join : t -> int -> unit
(** A slot just became active in the view: deliver the admitted
    streams it is interested in, most valuable first, where its
    capacity and residual utility allow. Raises no bounds; the next
    replan reseeds them. *)

val note_leave : t -> int -> unit
(** A slot was just deactivated in the view (its utilities are already
    zeroed there). *)

val note_cost_change : t -> int -> int
(** Stream costs changed in the view; re-derives budget usage and
    evicts until feasible. Returns the number of evictions. *)

val note_budget_resize : t -> int
(** Budgets changed in the view; same contract as
    {!note_cost_change}. *)

(** {1 Restore} *)

val force : ?admitted:int list -> t -> Mmd.Assignment.t -> unit
(** Install an assignment verbatim (snapshot restore). The assignment
    must have exactly [View.num_slots] users and be feasible for the
    view. [admitted] lists extra streams to mark transmitted beyond
    those appearing in the assignment — a stream whose recipients all
    left is delivered to nobody yet still holds budget and is free for
    later joiners, and the assignment alone cannot encode that.
    @raise Invalid_argument on a user-count mismatch or an
    out-of-range admitted stream. *)

val float_state : t -> float * float array * (float * float * float array) array
(** [(total, used, per-slot (delivered_util, capped, cap_used))] — the
    accumulated float state, copied. These values are path-dependent
    (incremental adds and subtracts round differently from the
    plan-order rebuild {!force} performs), so snapshots persist them
    bit-exactly to keep crash recovery bit-identical. *)

val set_float_state :
  t ->
  total:float ->
  used:float array ->
  slots:(float * float * float array) array ->
  unit
(** Overwrite the accumulated float state (snapshot restore, after
    {!force}). @raise Invalid_argument when [used] does not have
    [View.m], [slots] does not have [View.num_slots], or a slot's
    capacity row does not have [View.mc] entries. *)

val leq : float -> float -> bool
(** {!Prelude.Float_ops.leq} at its default tolerance: the copy the
    kernel inlines into its capacity and budget tests, with the same
    float operations in the same order. Exposed so tests can check that
    the two agree. *)

val add_evals : t -> evals:int -> eager_equiv:int -> unit
(** Credit historical counts (snapshot restore). *)
