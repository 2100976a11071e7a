(** Driving the replanning engine from the discrete-event simulator.

    Two integrations:

    - {!run} simulates {e user} churn: households join as a Poisson
      process (tastes drawn by {!Engine.Churn.random_user}, Zipf over
      catalog popularity) and dwell for an exponential time; every
      arrival and departure is fed to an {!Engine.Controller.t} as a
      delta, and plan utility is integrated over time
      ("viewer-value-time" of the maintained plan). {!run_replicated}
      is the same churn loop over a {!Replica.Group}: the loop is
      written once against {!Engine.Node.t}, and the replica group
      adds only its fault dispatch, the primary kill and the final
      quiesce.

    - {!policy} backs a {!Headend} admission policy with an engine:
      live sessions are pinned into the engine's view, the plan is
      refreshed every [replan_every] offers, and a stream offer is
      accepted exactly when the current plan transmits it. This is
      {!Policy.static_plan} upgraded from a frozen offline plan to a
      plan that follows the churn. *)

type stats = {
  sim_time : float;
  utility_time : float;  (** ∫ plan-utility dt over the run *)
  joins : int;
  leaves : int;
  peak_population : int;
  final_utility : float;
  report : Engine.Counters.report;
}

(** {1 Replan supervisor}

    A replan that dies (an exception from a pool task, an injected
    fault) must never take the serving plan down with it. The
    supervisor wraps {!Engine.Controller.replan} with bounded
    retry-with-exponential-backoff and, when every retry fails,
    restores the last feasible plan — the engine keeps serving, merely
    without the utility the replan would have recovered. *)

type supervisor_config = {
  replan_time_budget : float;
      (** seconds a replan may take before it is flagged as an
          overrun *)
  max_retries : int;  (** replan attempts after the first failure *)
  backoff : float;  (** base backoff; attempt [k] waits [backoff·2^k] *)
}

val default_supervisor : supervisor_config
(** 5 s budget, 3 retries, 50 ms base backoff. *)

type replan_outcome = {
  retries : int;  (** retry attempts actually used *)
  fell_back : bool;  (** true when the last feasible plan was restored *)
  overran : bool;  (** replan finished but blew the time budget *)
  seconds : float;
      (** wall-clock seconds for the whole supervised operation,
          measured with {!Obs.Clock} *)
  backoff_waited : float;  (** total simulated backoff wait *)
}

val supervised_replan :
  ?config:supervisor_config ->
  ?inject:(attempt:int -> unit) ->
  Engine.Controller.t ->
  replan_outcome
(** Replan under supervision. [inject] runs at the start of each
    attempt (attempt 0 is the initial try) — the fault-injection hook;
    an exception it raises counts as that attempt failing. Fallbacks
    are surfaced through {!Engine.Counters} as a fallback plus a
    recovery. *)

val run :
  rng:Prelude.Rng.t ->
  ?duration:float ->
  ?join_rate:float ->
  ?mean_dwell:float ->
  ?epoch:Engine.Controller.epoch_policy ->
  ?churn:Engine.Churn.params ->
  ?faults:Engine.Fault.schedule ->
  ?supervisor:supervisor_config ->
  ?batch:int ->
  Mmd.Instance.t ->
  stats
(** Defaults: duration 1000, join rate 0.2, mean dwell 400, epoch
    policy [Drift 0.05]. The instance's own users form the initial
    population (they churn out too); its streams are the fixed
    catalog.

    [batch] (default 1) routes departures through
    {!Engine.Controller.apply_batch} on a deferred buffer of at most
    [batch] deltas. The buffer drains before every utility
    observation, so stats are bit-identical at every [batch] — the
    utility-time integral samples at each event, which closes the
    coalescing window at the next event boundary; the real batch
    throughput win belongs to the replay paths (CLI [--batch]), not
    the event-driven simulation. Joins always apply synchronously
    (their slot id schedules the departure), and a non-empty [faults]
    forces [batch = 1] (fault boundaries observe per-delta state).

    [faults] (default none) pins {!Engine.Fault} events to the run's
    delta boundaries: budget shocks and stream outages are absorbed
    through {!Engine.Controller.absorb_shock} (evict back to
    feasibility, count the recovery), [Task_exn] makes the next
    supervised replan's first attempt die inside a pool task (the
    retry succeeds), and the storage fault kinds are no-ops here —
    they attack the WAL/snapshot layer, which the simulation does not
    use. All effects land in the run's {!Engine.Counters.report}. *)

(** {1 Replicated run} *)

type replicated_stats = {
  rbase : stats;  (** shaped like {!run}'s, reported by the final primary *)
  failovers : int;  (** promotions over the run *)
  final_term : int;
  final_primary : int;  (** replica id serving at the end *)
  time_to_promote : float;
      (** wall-clock seconds the most recent promotion took; 0 when no
          failover happened *)
  min_follower_acked : int;
      (** lowest acked seq among live followers after the final
          quiesce — equals [replicated_last_seq] when replication
          fully converged *)
  replicated_last_seq : int;  (** records the primary logged *)
}

val run_replicated :
  rng:Prelude.Rng.t ->
  ?duration:float ->
  ?join_rate:float ->
  ?mean_dwell:float ->
  ?epoch:Engine.Controller.epoch_policy ->
  ?churn:Engine.Churn.params ->
  ?replicas:int ->
  ?heartbeat_every:int ->
  ?kill_primary_at:float ->
  ?faults:Engine.Fault.schedule ->
  Mmd.Instance.t ->
  replicated_stats
(** {!run} behind a {!Replica.Group} of [replicas] followers (default
    2): every churn delta applies on the primary and ships to the
    followers. [kill_primary_at] (sim seconds) stops the primary cold
    mid-run; idle ticks then run the heartbeat failure detector until
    it promotes the most-caught-up follower, at the kill's sim time,
    and the run continues on the new primary. [faults] fires through
    {!Replica.Chaos.fire} at delta boundaries, so the replication
    fault kinds (frame drop/dup/reorder/truncate, crashes, heartbeat
    partitions) are live here, along with budget shocks and outages;
    [Task_exn] and the storage kinds are no-ops. The run ends with a
    quiesce, so follower convergence is checkable from
    [min_follower_acked]. *)

val policy :
  ?replan_every:int -> ?epoch:Engine.Controller.epoch_policy ->
  Mmd.Instance.t -> Policy.t
(** Engine-backed admission for {!Headend.run}. [replan_every]
    (default 16) bounds how many offers may arrive between plan
    refreshes; [epoch] is the engine's own delta policy (default
    [Manual] — the policy triggers replans itself). Resource
    accounting goes through {!Baselines.Usage}, so the policy never
    violates a budget or capacity even mid-epoch. *)
