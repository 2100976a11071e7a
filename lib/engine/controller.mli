(** The long-running replanning controller.

    A controller owns a {!View.t} of the world plus a {!Planner.t}
    holding the current plan, absorbs {!Delta.t} operations, and
    decides when to replan from scratch according to its epoch policy:

    - [Every n] — replan after every [n] applied deltas;
    - [Drift d] — replan when the plan utility has drifted by more
      than fraction [d] from its value at the last replan (churn
      repairs keep the plan feasible in between, but leaves erode
      utility and joins accumulate unexploited demand);
    - [Manual] — only when {!replan} is called.

    A replan is the lazy-greedy {!Planner.extend} from an empty plan,
    guarded by the §2.2 best-single-stream fix: if some single stream
    beats the greedy plan, the greedy restarts from that stream. The
    plan is feasible for the view at every point in time. *)

type epoch_policy = Every of int | Drift of float | Manual

val policy_of_string : string -> (epoch_policy, string) result
(** Parse ["every:N"], ["drift:X"] or ["manual"]. *)

val policy_to_string : epoch_policy -> string

type t

val create :
  ?policy:epoch_policy ->
  ?pinned:int list ->
  ?labels:(string * string) list ->
  Mmd.Instance.t ->
  t
(** Start a controller on an initial world (its users become the
    initial active slots) and compute the initial plan. Default policy
    [Every 64]. [labels] tag the controller's {!Counters} instruments
    in the {!Obs.Metrics} registry (e.g. [[("shard", "3")]] in a
    sharded engine). *)

val of_state :
  ?since_replan:int ->
  ?deltas_applied:int ->
  ?utility_at_replan:float ->
  ?admitted:int list ->
  ?labels:(string * string) list ->
  policy:epoch_policy ->
  pinned:int list ->
  view:View.t ->
  plan:Mmd.Assignment.t ->
  unit ->
  t
(** Rebuild a controller around restored state without replanning
    (snapshot restore). The epoch phase — deltas since the last
    replan and the utility recorded at it — defaults to "a replan
    just happened here"; passing the saved values makes the restored
    controller fire future replans at exactly the same deltas as the
    original would have. [admitted] is forwarded to {!Planner.force}
    so streams transmitted but currently undelivered survive the
    restore. *)

val apply : t -> Delta.t -> View.applied
(** Apply one delta: mutate the view, repair the plan incrementally,
    and replan if the epoch policy fires. *)

val apply_all : t -> Delta.t list -> unit

val apply_batch : ?on_applied:(View.applied -> unit) -> t -> Delta.t list -> unit
(** Apply a batch of deltas. Bit-identical to applying them
    one-at-a-time with {!apply} — every delta still runs the full
    per-delta state machine including the epoch-policy check, so
    replans fire at the same positions whatever the batch size — but
    the counter-registry flush and the tracing span are amortized over
    the batch. The batching entry point for the CLI/DES [--batch],
    the sharded router, and the replication tee. [on_applied] tees
    each delta's {!View.applied} (e.g. into {!Checkpoint.note}),
    called after the view/planner mutation and before the
    epoch-policy check. *)

(** {1 Degraded mode}

    A budget shock or stream outage can make the current plan
    infeasible mid-epoch. The repair inside {!apply} restores
    feasibility by evicting the lowest-density assignments (the same
    effectiveness order the greedy admits by), which sacrifices
    utility; until the next replan re-optimizes, the controller is
    {e degraded}: serving a feasible but knowingly sub-par plan
    instead of crashing or serving an infeasible one. *)

type recovery = {
  evictions : int;  (** assignments evicted to restore feasibility *)
  utility_sacrificed : float;  (** plan utility given up by the repair *)
  seconds : float;  (** time-to-recover (CPU) *)
}

val absorb_shock : t -> Delta.t -> recovery
(** Apply a fault-injected delta through the exact same state machine
    as {!apply} — a WAL replay that treats it as ordinary churn stays
    bit-identical — but instrumented as a fault: counts it, measures
    the repair, and flags the controller degraded when the repair cost
    utility (unless the epoch policy already fired a replan). *)

val degraded : t -> bool
(** True between a utility-sacrificing repair and the next replan. *)

val is_plan_feasible : t -> bool
(** Check the current plan against the materialized view — the
    external feasibility checker used by tests and the supervisor. *)

val restore_feasibility : t -> recovery
(** Re-derive budget usage from the admitted set and evict
    lowest-density assignments until every budget holds. A no-op
    returning zero evictions when the plan is already feasible; the
    repair of last resort for faults that bypass the delta path. *)

val replan : ?mode:Planner.mode -> t -> unit
(** Force an epoch boundary now. *)

val view : t -> View.t
val planner : t -> Planner.t
val plan : t -> Mmd.Assignment.t
val utility : t -> float
val set_pinned : t -> int list -> unit
val pinned : t -> int list
val policy : t -> epoch_policy
val deltas_applied : t -> int

val since_replan : t -> int
(** Deltas applied since the last replan (the epoch phase). *)

val utility_at_replan : t -> float
(** Plan utility recorded at the last replan (the [Drift] baseline). *)

val counters : t -> Counters.t
val report : t -> Counters.report

val scratch : ?mode:Planner.mode -> ?pinned:int list -> View.t -> float * int
(** [(utility, marginal evals)] of a from-scratch solve of the view's
    current state with the same algorithm a replan runs (greedy +
    best-single fix), on a throwaway planner. The reference point for
    "how much would solving from scratch cost here". *)

val scratch_planner :
  ?mode:Planner.mode -> ?pinned:int list -> View.t -> Planner.t
(** The throwaway planner behind {!scratch}, holding the from-scratch
    plan — for checks that compare whole plans, not just utilities. *)
