(** The multi-head-end router: N independent engine shards behind one
    delta stream.

    A shard is any {!Engine.Node.t}, built per shard by the [build]
    argument of {!create}: by default one {!Engine.Controller} (its
    view, planner and {!Engine.Counters}, labeled [shard="i"] in the
    {!Obs.Metrics} registry) behind {!Engine.Node.of_controller}, or a
    replica group's node. The router routes deltas to the node and
    reads its view, utility and controllers; it never knows what
    executes a delta, so a primary failure inside a replicated shard
    heals by promotion at the shard's next delta without the router
    noticing. Each shard logs its own local delta
    stream to an optional {!Engine.Wal}, so per-shard crash recovery
    and bit-exact determinism come for free: a shard's WAL replays into
    a fresh controller exactly as the unsharded engine's does.

    The router owns a {e skeleton} view of the unsharded world: every
    delta goes through [Engine.View.apply] on it, except that a join
    enters without its interests. It holds the global slots, each
    user's capacities and cap, the true costs and the true budgets,
    and its per-stream incidence lists stay empty, so a delta costs
    it O(m) rather than a shift of incidence arrays N times longer
    than a shard's. It allocates global slot ids with exactly the
    unsharded engine's slot discipline, so [leave <slot>] deltas
    recorded against an unsharded run route correctly. The full
    unsharded view ({!mirror}) is built from the skeleton and the
    shards' views only when something asks for it: the
    single-global-solve reference ({!global_scratch}) that the
    cross-shard utility loss is measured against, and {!certify}.

    Budgets: the skeleton holds the true budgets [B_i]; each shard plans
    under its split share. Per-shard sub-budgets may undercut a
    stream's cost; the shard's view then clamps that cost down, the
    same documented clamp the unsharded engine applies on a budget
    shrink. With one shard every split is the identity ([B /. 1.] and
    [B *. 1.] are exact), which is what makes [--shards 1] bit-identical
    to the unsharded engine. *)

type t

type budget_split =
  | Even  (** every shard gets [B_i / N] *)
  | Demand
      (** shard [j] gets [B_i * d_j / Σd], where [d_j] is the summed
          positive utility of the users currently on shard [j] — the
          skew-aware split; falls back to [Even] while no demand has
          been observed. *)

type builder =
  labels:(string * string) list ->
  ?wal:Engine.Wal.writer ->
  Mmd.Instance.t ->
  Engine.Node.t
(** Builds one shard's node from its metric labels ([shard="i"]), its
    optional WAL writer and its initial sub-instance. The node must
    append each applied local delta to [wal] (the router opens and
    closes the writer), as {!Engine.Node.of_controller} does, and as a
    replica group's node does when the group was created with [wal]. *)

val create :
  ?policy:Engine.Controller.epoch_policy ->
  ?split:budget_split ->
  ?wal_dir:string ->
  ?build:builder ->
  map:Shard_map.t ->
  Mmd.Instance.t ->
  t
(** Build one node per shard of [map] over [inst]'s catalog, calling
    [build] once per shard in shard order. [build] defaults to
    {!Engine.Node.of_controller} over a controller with epoch policy
    [policy] (which only the default reads). [inst]'s users (if any)
    become initial active slots, dealt by {!Shard_map.plan} — global
    slot ids equal the unsharded engine's. [split] defaults to [Even].
    [wal_dir] turns on per-shard WALs at [wal_dir/shard-<i>.wal],
    recording each shard's {e local} delta stream (slot ids are
    shard-local, so each WAL replays standalone into a controller built
    over that shard's initial sub-instance). *)

val num_shards : t -> int
val map : t -> Shard_map.t

val apply : t -> Engine.Delta.t -> Engine.View.applied
(** Route one delta: a join goes to the least-loaded shard (interleave
    tiebreak), a leave to the owning shard (slot ids are {e global} —
    the skeleton's), cost changes broadcast verbatim, budget resizes
    broadcast split per {!budget_split}. The returned [applied] speaks
    global slot ids. A delta the views refuse raises
    [Invalid_argument] and changes nothing: a join is applied to its
    shard, which checks the whole spec, before the skeleton gives it a
    global slot; cost changes and budget resizes are checked by the
    skeleton before any shard sees them. *)

val apply_all : t -> Engine.Delta.t list -> unit

val apply_batch : t -> Engine.Delta.t list -> unit
(** {!apply} each delta in order — routing is inherently sequential —
    with [~flush:false], then one [flush] of every shard: the per-shard
    WAL OS flushes are amortized to one per shard per batch. WAL bytes
    and replication frames are identical to one-at-a-time applies. *)

val rebalance : t -> k:int -> int
(** One epoch of {!Shard_map.rebalance}: at most [k] users move
    between shards, each as an ordinary leave/join pair through the
    shards' delta paths (WAL-recorded like any churn). Global slot ids
    and the {!mirror} are unchanged — a move is invisible to the
    outside.
    Victims are deterministic: the highest global slot on the donor
    shard. Returns the number of users moved. *)

val resplit_budgets : t -> unit
(** Re-issue the current global budgets through the splitter (a
    [Budget_resize] on every shard). A no-op rebroadcast under [Even];
    under [Demand] this is the periodic skew adaptation. *)

val replan_all : t -> unit
(** Force an epoch boundary on every shard, concurrently on the
    domain pool (shards plan over disjoint sub-worlds; each plan is
    bit-identical to a sequential replan of that shard). *)

val shard_of_slot : t -> int -> int
(** Owning shard of an active global slot, [-1] otherwise. *)

val counts : t -> int array
(** Active users per shard. Fresh copy. *)

val demand : t -> float array
(** Summed positive utility of the users on each shard (the [Demand]
    split weights). Fresh copy. *)

val controller : t -> int -> Engine.Controller.t
(** The first controller serving shard [i]'s plan — its only one, or
    the current primary of a replica group. *)

val mirror : t -> Engine.View.t
(** The unsharded view: a fresh {!Engine.View.copy} of the skeleton
    with every active global slot refilled by
    {!Engine.View.restore_slot} from its owning shard's
    {!Engine.View.user_spec}. It equals, slot by slot, the view an
    unsharded engine fed the same deltas holds (free-slot order,
    costs and budgets included). O(users + interests) per call, off
    the ingest path; mutating the result does not touch the router. *)

val utility : t -> float
(** Sum of the shards' plan utilities — the sharded system's achieved
    utility. *)

val report : t -> Engine.Counters.report
(** Cross-shard aggregation over the controllers serving the plan (a
    replica group counts once, through its primary): integer telemetry
    summed, latency histograms merged ({!Obs.Hist.merge_into}) before summarizing.
    [certificates]/[certified_ratio] are the router's own {!certify}
    runs, not shard counters. *)

val certify :
  ?iters:int -> t -> (Engine.Certify.outcome * Cert.Certificate.t, string) result
(** Certify the whole fleet's achieved utility against one global
    upper bound: each shard emits a sparse certificate for its
    sub-world, the per-user duals compose ({!Cert.Checker.compose})
    under a count-weighted average of the shards' budget duals, and the
    composed certificate is re-verified by the independent checker
    against the {!mirror}, built once per call — the unsharded
    problem — so the reported
    bound is the checker's recomputation over the true global budgets
    and costs, never a sum of shard claims. With [--shards 1] the
    composition is the identity and the bound is bit-identical to
    {!Engine.Certify.sparse} on the unsharded engine. On success the
    router's report/gauge ([engine_certified_opt_ratio]) are updated. *)

val global_scratch : t -> float * int
(** [(utility, evals)] of a single global solve over the {!mirror},
    built once per call — the
    reference the cross-shard utility loss is measured against:
    [loss = 1 - utility t / fst (global_scratch t)]. *)

val close : t -> unit
(** Close every shard's node, then its WAL writer, if any. *)

val node : t -> Engine.Node.t
(** The router as an {!Engine.Node.t}: deltas route as in {!apply},
    [view] builds the unsharded {!mirror} on each call (so join specs
    drawn against it do not depend on the shard count; a driver that
    draws many should call it once), [controllers], [utility] and
    [report] are the fleet's, [flush] flushes every shard, [replan] is
    {!replan_all} and [close] is {!close}. *)
