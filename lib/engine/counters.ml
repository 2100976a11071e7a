(* Per-controller telemetry, mirrored into the process-global Obs
   metric registry so exporters see one aggregate across controllers.
   Latency samples live in log-scaled Obs histograms — mergeable,
   snapshot-persistable — instead of unbounded sample lists. *)

(* Registry mirrors. Each counter set registers its instruments under
   its own label set (e.g. [shard="3"]), so N shards in one process
   export N distinct series instead of colliding on one name;
   registration is idempotent, so unlabeled controllers keep sharing
   the process-wide aggregate exactly as before. Cross-shard totals
   come from Obs.Metrics.sum_counter / merged_histogram. *)
type mirrors = {
  m_deltas : Obs.Metrics.counter;
  m_replans : Obs.Metrics.counter;
  m_evictions : Obs.Metrics.counter;
  m_faults : Obs.Metrics.counter;
  m_quarantined : Obs.Metrics.counter;
  m_recoveries : Obs.Metrics.counter;
  m_fallbacks : Obs.Metrics.counter;
  m_replan_seconds : Obs.Hist.t;
  m_recovery_seconds : Obs.Hist.t;
  m_path_snapshot : Obs.Metrics.counter;
  m_path_replay : Obs.Metrics.counter;
  m_path_chain : Obs.Metrics.counter;
  m_certified_ratio : Obs.Metrics.gauge;
}

type t = {
  mutable joins : int;
  mutable leaves : int;
  mutable cost_changes : int;
  mutable budget_resizes : int;
  mutable replans : int;
  mutable evictions : int;
  mutable replan_hist : Obs.Hist.t;
  (* Resilience telemetry (PR 3). *)
  mutable faults : int;
  mutable quarantined : int;
  mutable recoveries : int;
  mutable fallbacks : int;
  mutable recovery_hist : Obs.Hist.t;
  (* Recovery path selection (PR 7): which startup path the recovery
     chooser took. Not part of [fields]/[report] — the choice depends
     on measured machine speed, so folding it into the bit-identity
     surfaces would make determinism checks flaky. *)
  mutable snapshot_recoveries : int;
  mutable full_replays : int;
  (* Certificate telemetry (PR 10): how many optimality certificates
     were checked against this controller's world, and the last
     checker-verified achieved/bound ratio (0. until one exists). *)
  mutable certificates : int;
  mutable certified_ratio : float;
  mirrors : mirrors;
}

let mirrors ~labels =
  { m_deltas = Obs.Metrics.counter ~labels "engine_deltas_total";
    m_replans = Obs.Metrics.counter ~labels "engine_replans_total";
    m_evictions = Obs.Metrics.counter ~labels "engine_evictions_total";
    m_faults = Obs.Metrics.counter ~labels "engine_faults_total";
    m_quarantined = Obs.Metrics.counter ~labels "engine_quarantined_total";
    m_recoveries = Obs.Metrics.counter ~labels "engine_recoveries_total";
    m_fallbacks = Obs.Metrics.counter ~labels "engine_fallbacks_total";
    m_replan_seconds = Obs.Metrics.histogram ~labels "engine_replan_seconds";
    m_recovery_seconds =
      Obs.Metrics.histogram ~labels "engine_recovery_seconds";
    m_path_snapshot =
      Obs.Metrics.counter
        ~labels:(labels @ [ ("path", "snapshot") ])
        "engine_recovery_path_total";
    m_path_replay =
      Obs.Metrics.counter
        ~labels:(labels @ [ ("path", "replay") ])
        "engine_recovery_path_total";
    m_path_chain =
      Obs.Metrics.counter
        ~labels:(labels @ [ ("path", "chain") ])
        "engine_recovery_path_total";
    m_certified_ratio =
      Obs.Metrics.gauge ~labels "engine_certified_opt_ratio" }

let create ?(labels = []) () =
  { mirrors = mirrors ~labels;
    joins = 0;
    leaves = 0;
    cost_changes = 0;
    budget_resizes = 0;
    replans = 0;
    evictions = 0;
    replan_hist = Obs.Hist.create ();
    faults = 0;
    quarantined = 0;
    recoveries = 0;
    fallbacks = 0;
    recovery_hist = Obs.Hist.create ();
    snapshot_recoveries = 0;
    full_replays = 0;
    certificates = 0;
    certified_ratio = 0. }

let note_delta t (d : Delta.t) =
  Obs.Metrics.inc t.mirrors.m_deltas;
  match d with
  | User_join _ -> t.joins <- t.joins + 1
  | User_leave _ -> t.leaves <- t.leaves + 1
  | Stream_cost_change _ -> t.cost_changes <- t.cost_changes + 1
  | Budget_resize _ -> t.budget_resizes <- t.budget_resizes + 1

(* Batch-apply flush: one registry touch for a whole batch instead of
   one atomic per delta. Field arithmetic lands on the same final
   values as per-delta [note_delta] calls. *)
let note_deltas t ~joins ~leaves ~cost_changes ~budget_resizes =
  let n = joins + leaves + cost_changes + budget_resizes in
  if n > 0 then Obs.Metrics.inc ~n t.mirrors.m_deltas;
  t.joins <- t.joins + joins;
  t.leaves <- t.leaves + leaves;
  t.cost_changes <- t.cost_changes + cost_changes;
  t.budget_resizes <- t.budget_resizes + budget_resizes

let note_replan t ~seconds =
  t.replans <- t.replans + 1;
  Obs.Hist.observe t.replan_hist seconds;
  Obs.Metrics.inc t.mirrors.m_replans;
  Obs.Hist.observe t.mirrors.m_replan_seconds seconds

let note_eviction t =
  t.evictions <- t.evictions + 1;
  Obs.Metrics.inc t.mirrors.m_evictions

let note_fault t =
  t.faults <- t.faults + 1;
  Obs.Metrics.inc t.mirrors.m_faults

let note_quarantined ?(n = 1) t =
  t.quarantined <- t.quarantined + n;
  Obs.Metrics.inc ~n t.mirrors.m_quarantined

let note_recovery t ~seconds =
  t.recoveries <- t.recoveries + 1;
  Obs.Hist.observe t.recovery_hist seconds;
  Obs.Metrics.inc t.mirrors.m_recoveries;
  Obs.Hist.observe t.mirrors.m_recovery_seconds seconds

let note_fallback t =
  t.fallbacks <- t.fallbacks + 1;
  Obs.Metrics.inc t.mirrors.m_fallbacks

type recovery_path = Snapshot_tail | Full_replay | Chain_tail

let note_recovery_path t path =
  match path with
  | Snapshot_tail ->
      t.snapshot_recoveries <- t.snapshot_recoveries + 1;
      Obs.Metrics.inc t.mirrors.m_path_snapshot
  | Full_replay ->
      t.full_replays <- t.full_replays + 1;
      Obs.Metrics.inc t.mirrors.m_path_replay
  | Chain_tail ->
      (* A checkpoint chain is the snapshot family of recovery: count
         it on that side of the pair, with its own exported label. *)
      t.snapshot_recoveries <- t.snapshot_recoveries + 1;
      Obs.Metrics.inc t.mirrors.m_path_chain

let recovery_paths t = (t.snapshot_recoveries, t.full_replays)

let note_certificate t ~ratio =
  t.certificates <- t.certificates + 1;
  t.certified_ratio <- ratio;
  Obs.Metrics.set t.mirrors.m_certified_ratio ratio

let set_certified_gauge ?(labels = []) ratio =
  Obs.Metrics.set (Obs.Metrics.gauge ~labels "engine_certified_opt_ratio") ratio

let certificates t = t.certificates
let certified_ratio t = t.certified_ratio

let deltas t = t.joins + t.leaves + t.cost_changes + t.budget_resizes
let replans t = t.replans
let faults t = t.faults
let quarantined t = t.quarantined
let recoveries t = t.recoveries
let fallbacks t = t.fallbacks
let replan_hist t = t.replan_hist
let recovery_hist t = t.recovery_hist
let set_replan_hist t h = t.replan_hist <- h
let set_recovery_hist t h = t.recovery_hist <- h

let restore t ~joins ~leaves ~cost_changes ~budget_resizes ~replans ~evictions
    =
  t.joins <- joins;
  t.leaves <- leaves;
  t.cost_changes <- cost_changes;
  t.budget_resizes <- budget_resizes;
  t.replans <- replans;
  t.evictions <- evictions;
  Obs.Hist.clear t.replan_hist

let restore_resilience t ~faults ~quarantined ~recoveries ~fallbacks =
  t.faults <- faults;
  t.quarantined <- quarantined;
  t.recoveries <- recoveries;
  t.fallbacks <- fallbacks;
  Obs.Hist.clear t.recovery_hist

type report = {
  deltas : int;
  joins : int;
  leaves : int;
  cost_changes : int;
  budget_resizes : int;
  replans : int;
  evictions : int;
  evals : int;
  eager_equiv : int;
  evals_saved : int;
  replan_latency : Prelude.Stats.summary;
  faults : int;
  quarantined : int;
  recoveries : int;
  fallbacks : int;
  recovery_latency : Prelude.Stats.summary;
  certificates : int;
  certified_ratio : float;
}

let report t ~evals ~eager_equiv =
  { deltas = deltas t;
    joins = t.joins;
    leaves = t.leaves;
    cost_changes = t.cost_changes;
    budget_resizes = t.budget_resizes;
    replans = t.replans;
    evictions = t.evictions;
    evals;
    eager_equiv;
    evals_saved = max 0 (eager_equiv - evals);
    replan_latency = Obs.Hist.to_summary t.replan_hist;
    faults = t.faults;
    quarantined = t.quarantined;
    recoveries = t.recoveries;
    fallbacks = t.fallbacks;
    recovery_latency = Obs.Hist.to_summary t.recovery_hist;
    certificates = t.certificates;
    certified_ratio = t.certified_ratio }

let fields (t : t) =
  (t.joins, t.leaves, t.cost_changes, t.budget_resizes, t.replans, t.evictions)

let resilience_fields (t : t) =
  (t.faults, t.quarantined, t.recoveries, t.fallbacks)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>deltas: %d (join %d, leave %d, cost %d, budget %d)@,\
     replans: %d  evictions: %d@,\
     marginal evals: %d (eager-equivalent %d, saved %d)@,\
     replan latency: %a@]"
    r.deltas r.joins r.leaves r.cost_changes r.budget_resizes r.replans
    r.evictions r.evals r.eager_equiv r.evals_saved Prelude.Stats.pp_summary
    r.replan_latency;
  if r.faults > 0 || r.quarantined > 0 || r.recoveries > 0 || r.fallbacks > 0
  then
    Format.fprintf ppf
      "@[<v>@,\
       faults: %d  quarantined records: %d  recoveries: %d  fallbacks: %d@,\
       time-to-recover: %a@]"
      r.faults r.quarantined r.recoveries r.fallbacks Prelude.Stats.pp_summary
      r.recovery_latency;
  if r.certificates > 0 then
    Format.fprintf ppf
      "@[<v>@,certificates: %d  certified ratio (achieved/bound): %.4f@]"
      r.certificates r.certified_ratio
