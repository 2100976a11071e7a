(** Replicated control plane: WAL shipping + heartbeat failover.

    A replica {e group} runs one primary {!Engine.Controller} and N
    follower controllers. Every delta the primary applies is framed as
    the exact WAL record it persisted (same bytes, same CRC — the tee
    point is {!Engine.Wal.append_tee}) and shipped over a per-follower
    {!Transport} link. Followers verify each record's CRC, buffer out
    of order, and apply contiguously through the ordinary
    {!Engine.Controller.apply} path — so by the determinism property
    of the engine, a follower at acked seq [s] is bit-identical to the
    primary as of record [s]: same plan, same utility, same float
    accumulators, same counters.

    Fault-injected shocks ship as distinct frames and replay through
    {!Engine.Controller.absorb_shock}, so follower fault/recovery
    counters match the primary's too.

    Time is a logical clock: one tick per applied record, plus
    explicit idle {!tick}s. Every [heartbeat_every] ticks the primary
    broadcasts a heartbeat and followers drain their links (delivery
    is batched at heartbeat boundaries, so follower lag is real and
    failover genuinely replays a tail). A follower that heard a
    heartbeat announcing records it is missing is healed by gap
    retransmit from the in-memory shipped log.

    Failure detection is heartbeat timeout + capped exponential
    backoff: [max_backoffs] consecutive missed deadlines promote the
    most-caught-up live follower (ties to the lowest id). Promotion
    drains the winner's link, finishes replaying its buffered tail
    (topping up from the durable shipped log), bumps the term, and
    resumes — the promoted primary is bit-identical to what the dead
    primary would have been at the same record, including the epoch
    phase, so subsequent replans fire at exactly the same deltas.

    Planned failover is the lease-based {!hand_over}: the primary
    drains its tail to a designated successor, fences every follower
    on the next term with a {!Frame.Lease}, and flips roles — zero
    lost records, zero replan divergence, and the demoted primary
    rejoins the follower set fully caught up (crash promotion, by
    contrast, retires the dead primary's record).

    Replica ids: the initial primary is 0, followers are 1..N. After a
    failover the promoted follower keeps its id; after a handover the
    demoted primary becomes follower [id] again (replica 0 gains a
    follower record on its first demotion). *)

module Frame : sig
  type t =
    | Data of { term : int; record : string }
        (** an ordinary record; [record] is the binary WAL record,
            byte for byte as the primary logged it *)
    | Shock of { term : int; record : string }
        (** a fault-injected record, applied via [absorb_shock] *)
    | Heartbeat of { term : int; last_seq : int; tick : int }
    | Lease of { term : int; last_seq : int; successor : int }
        (** planned-handover fence: [successor] leads from [term] on;
            everything through [last_seq] is durable under the old
            term *)

  val to_string : t -> string
  (** ["D <term> <record>"], ["S <term> <record>"], ["H <term> <last_seq>
      <tick>"] or ["L <term> <last_seq> <successor>"]. *)

  val of_string : string -> (t, string) result

  val record_at : string -> (bool * int * int) option
  (** For a [Data] or [Shock] frame, [Some (shock, term, pos)] with the
      record's bytes from [pos] to the end: what a follower decodes in
      place, without copying the record out. *)
end

type config = {
  heartbeat_every : int;  (** ticks between heartbeats (default 8) *)
  heartbeat_timeout : int;
      (** ticks without contact before the first suspicion (default 24) *)
  backoff_cap : int;  (** max ticks a backoff deadline may add (128) *)
  max_backoffs : int;
      (** missed deadlines tolerated before promotion (default 3) *)
}

val default_config : config

val heartbeat_config : int option -> config
(** {!default_config} with a heartbeat every [hb] ticks and a
    detection timeout of at least three heartbeats; [None] is
    {!default_config}. The one place a heartbeat cadence becomes a
    config, for the CLI, the shard router and the simulator alike.
    @raise Invalid_argument when [hb < 1]. *)

type t

val create :
  ?policy:Engine.Controller.epoch_policy ->
  ?config:config ->
  ?labels:(string * string) list ->
  ?wal:Engine.Wal.writer ->
  ?mk_link:(int -> Transport.link) ->
  replicas:int ->
  Mmd.Instance.t ->
  t
(** A group of one primary + [replicas] followers (at least 1), all
    started from [inst]. [labels] prefix every exported instrument
    (each replica additionally gets a [replica="<id>"] label, so a
    sharded deployment passes [[("shard", i)]] and series stay
    distinct). [wal] is the primary's durable log: when given, records
    are appended (and flushed) there before shipping. [mk_link] builds
    the transport link for each replica id (default: a fresh
    in-process {!Transport.queue_link}; pass
    [fun _ -> Transport_socket.loopback ()] to replicate over real
    sockets). *)

val apply : ?flush:bool -> t -> Engine.Delta.t -> Engine.View.applied
(** Apply on the primary, persist, ship to every live follower, and
    advance one tick. [flush] (default [true]) is the per-record WAL
    OS flush; batch callers pass [false] and {!flush_wal} once.
    @raise Invalid_argument when the primary is down — {!fail_over}
    (or {!quiesce}) first. *)

val apply_batch : t -> Engine.Delta.t list -> Engine.View.applied list
(** {!apply} each delta in order with one WAL flush at batch end.
    Bit-identical to per-record applies — every record still logs,
    ships and ticks individually, so heartbeat and failover timing are
    unchanged — and the WAL bytes on disk are identical. *)

val flush_wal : t -> unit
(** Flush the attached WAL writer (no-op without one). *)

val absorb_shock : t -> Engine.Delta.t -> Engine.Controller.recovery
(** Like {!apply} for a fault-injected delta: goes through the
    primary's [absorb_shock] and ships as a {!Frame.Shock} so
    followers replay it through their own [absorb_shock]. *)

val tick : t -> unit
(** One idle tick: heartbeat if due (and not partitioned), otherwise
    run the failure detector — which, on a dead or partitioned-away
    primary, eventually promotes. *)

val quiesce : ?max_rounds:int -> t -> bool
(** Clear any partition, promote if the primary is down, then force
    heartbeat rounds until every live follower is fully caught up
    (true) or [max_rounds] (default 1024) rounds pass (false). *)

val hand_over : ?to_:int -> t -> (int, string) result
(** Planned, lease-based failover: drain the primary's tail to the
    successor ([to_], or the most-caught-up live follower, ties to the
    lowest id), fence every live follower on term+1 with a
    {!Frame.Lease}, flip roles, and rejoin the demoted primary as a
    fully caught-up follower. [Ok id] is the new primary's replica id.
    [Error _] — no eligible successor, or the successor could not
    catch up within the lease (the handover aborts and the old
    primary keeps serving; nothing is lost either way). Unlike crash
    promotion this loses zero in-flight records and retires nobody. *)

val close : t -> unit
(** Close every follower link, releasing any OS resources (socket
    fds). The group must not be used afterwards. *)

val ensure_promoted : t -> unit
(** If the primary is down, run idle ticks until the failure detector
    promotes a follower (restarting crashed followers first when none
    is live). A no-op on a healthy group. *)

val node : t -> Engine.Node.t
(** The group as an {!Engine.Node.t}: every apply first
    {!ensure_promoted}, so a primary killed between deltas is replaced
    before the next one lands; the read side ([view], [controllers],
    [utility], [report]) and [replan] go to the current primary.
    [flush] is {!flush_wal}. [close] is {!close}; an attached WAL stays
    the caller's to close. *)

(** {1 Chaos surface} *)

val kill_primary : t -> unit
(** The primary stops cold: no more appends, ships or heartbeats.
    Detection and promotion happen in subsequent {!tick}s. The killed
    replica itself is retired — if it was a promoted follower it does
    not rejoin the follower set (its acked position went stale while
    it served); {!restart_follower} rebuilds it from scratch. *)

val fail_over : t -> bool
(** Promote now (skipping detection): false iff no live follower
    exists. Called by the failure detector; exposed for tests and for
    drivers that know the primary is gone. *)

val crash_follower : t -> int -> bool
(** Follower [id] dies, losing its link and buffers. False when [id]
    is unknown, already down, or currently the primary. *)

val restart_follower : t -> int -> bool
(** Rebuild follower [id] from scratch by replaying the durable
    shipped log — the follower-side cold recovery. False when [id] is
    unknown or alive. *)

val partition_heartbeats : t -> int -> unit
(** Suppress heartbeat delivery for the next [n] ticks. The primary
    keeps appending; a short partition rides out on detector backoff,
    a long one triggers promotion. *)

val inject : t -> follower:int -> Transport.fault -> bool
(** Arm a single-delivery fault on follower [id]'s link. *)

(** {1 Introspection} *)

val primary : t -> Engine.Controller.t
val primary_id : t -> int
val primary_alive : t -> bool
val term : t -> int
val clock : t -> int
val last_seq : t -> int
(** Highest sequence number the (current) primary has logged. *)

val replicas : t -> int
val failovers : t -> int

val handovers : t -> int
(** Completed planned handovers (granted leases that committed). *)

val last_promote_seconds : t -> float
(** Wall-clock time the most recent promotion took (drain + tail
    replay); 0 before any failover. *)

val live_followers : t -> int list
(** Follower ids currently alive and not promoted to primary. *)

val follower_ctrl : t -> int -> Engine.Controller.t option
(** The follower's controller, for divergence checks; [None] when
    crashed or unknown (the promoted follower's controller is
    {!primary}). *)

val acked : t -> int -> int option
(** Highest contiguously applied seq on follower [id]. *)

val lag : t -> int -> int option
(** [last_seq - acked], the record lag gauge value. *)

val link : t -> int -> Transport.link option
(** Replica [id]'s transport link (for fault-stat assertions). *)
