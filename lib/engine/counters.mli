(** Operational telemetry for the replanning engine.

    Counts deltas by kind, replans, plan repairs, evictions, and
    latencies; the planner contributes marginal-utility evaluation
    counts. Latency samples live in log-scaled {!Obs.Hist} histograms
    (monotonic wall-clock seconds, via {!Obs.Clock}) and every count
    is mirrored into the process-global {!Obs.Metrics} registry so the
    exporters aggregate across controllers. {!report} folds everything
    into the summary the CLI and benchmarks print. *)

type t

val create : ?labels:(string * string) list -> unit -> t
(** [labels] (default none) are attached to every instrument this
    counter set mirrors into {!Obs.Metrics} — a sharded engine passes
    [[("shard", "3")]] so N shards export N distinct Prometheus series
    under the same metric names instead of colliding. Cross-shard
    totals are recovered with {!Obs.Metrics.sum_counter} and
    {!Obs.Metrics.merged_histogram}. *)

val note_delta : t -> Delta.t -> unit

val note_deltas :
  t -> joins:int -> leaves:int -> cost_changes:int -> budget_resizes:int -> unit
(** Bulk variant of {!note_delta} for {!Controller.apply_batch}: one
    registry touch per batch, identical final field values. *)

val note_replan : t -> seconds:float -> unit
(** [seconds] is wall-clock time, measured with {!Obs.Clock}. *)

val note_eviction : t -> unit

val note_fault : t -> unit
(** An injected or detected fault reached the controller. *)

val note_quarantined : ?n:int -> t -> unit
(** [n] (default 1) WAL records were skipped during recovery. Also adds
    [n] to the exported [engine_quarantined_total] counter. *)

val note_recovery : t -> seconds:float -> unit
(** A degraded plan was made feasible again; [seconds] is the
    wall-clock time-to-recover. *)

val note_fallback : t -> unit
(** The supervisor abandoned a replan and restored the last feasible
    plan. *)

type recovery_path = Snapshot_tail | Full_replay | Chain_tail

val note_recovery_path : t -> recovery_path -> unit
(** Record which startup recovery path {!Recovery.open_} took:
    snapshot + WAL-tail replay, or a full WAL replay from scratch.
    Mirrored into the exported [engine_recovery_path_total] counter
    with a [path="snapshot"|"replay"|"chain"] label ([Chain_tail] is
    a checkpoint-chain restore plus WAL-tail replay; it counts on the
    snapshot side of {!recovery_paths}). Deliberately excluded from
    {!fields} and {!report}: the choice depends on measured machine
    speed, which would poison bit-identity checks. *)

val recovery_paths : t -> int * int
(** [(snapshot_tail, full_replay)] selections recorded so far. *)

val note_certificate : t -> ratio:float -> unit
(** A checker-verified optimality certificate was obtained for this
    controller's world; [ratio] is achieved utility / certified bound.
    Bumps the certificate count, records the ratio, and mirrors it
    into the exported [engine_certified_opt_ratio] gauge (under this
    counter set's labels). *)

val set_certified_gauge : ?labels:(string * string) list -> float -> unit
(** Write the [engine_certified_opt_ratio] gauge directly — for
    composed bounds that belong to no single controller (the sharded
    router's cross-shard certificate). *)

val certificates : t -> int
val certified_ratio : t -> float
(** Last ratio recorded by {!note_certificate}; [0.] until one is. *)

val deltas : t -> int
(** Total deltas recorded. *)

val replans : t -> int
val faults : t -> int
val quarantined : t -> int
val recoveries : t -> int
val fallbacks : t -> int

val replan_hist : t -> Obs.Hist.t
(** The replan-latency histogram (for snapshot persistence). *)

val recovery_hist : t -> Obs.Hist.t
(** The time-to-recover histogram (for snapshot persistence). *)

val set_replan_hist : t -> Obs.Hist.t -> unit
(** Install restored histogram state (snapshot load). *)

val set_recovery_hist : t -> Obs.Hist.t -> unit

val restore :
  t ->
  joins:int ->
  leaves:int ->
  cost_changes:int ->
  budget_resizes:int ->
  replans:int ->
  evictions:int ->
  unit
(** Overwrite the aggregate counts (snapshot restore). Clears the
    replan-latency histogram; {!set_replan_hist} reinstates persisted
    samples when the snapshot carries them. *)

val restore_resilience :
  t -> faults:int -> quarantined:int -> recoveries:int -> fallbacks:int -> unit
(** Overwrite the resilience counts (snapshot restore); clears the
    time-to-recover histogram (see {!set_recovery_hist}). *)

type report = {
  deltas : int;
  joins : int;
  leaves : int;
  cost_changes : int;
  budget_resizes : int;
  replans : int;
  evictions : int;
  evals : int;  (** marginal-utility evaluations actually performed *)
  eager_equiv : int;
      (** evaluations an eager (non-lazy) greedy would have performed
          over the same replans *)
  evals_saved : int;  (** [eager_equiv - evals], floored at 0 *)
  replan_latency : Prelude.Stats.summary;
      (** seconds, monotonic wall clock *)
  faults : int;  (** faults injected into / detected by the engine *)
  quarantined : int;  (** WAL records skipped during recovery *)
  recoveries : int;  (** degraded plans made feasible again *)
  fallbacks : int;  (** replans abandoned for the last feasible plan *)
  recovery_latency : Prelude.Stats.summary;
      (** time-to-recover, wall-clock seconds *)
  certificates : int;  (** checker-verified optimality certificates *)
  certified_ratio : float;
      (** last achieved/bound ratio; [0.] when no certificate yet.
          Always from a {e checked} certificate — the checker's own
          recomputed bound, never the emitter's claim. *)
}

val report : t -> evals:int -> eager_equiv:int -> report
val fields : t -> int * int * int * int * int * int
(** [(joins, leaves, cost_changes, budget_resizes, replans, evictions)]
    — for snapshot serialization. *)

val resilience_fields : t -> int * int * int * int
(** [(faults, quarantined, recoveries, fallbacks)] — for snapshot
    serialization. *)

val pp_report : Format.formatter -> report -> unit
