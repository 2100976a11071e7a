(** Multi-process replica sets.

    Each follower is its own OS process that feeds the
    {!Frame_codec}-framed {!Group.Frame} payloads it receives to a
    {!Group.Follower}: follower ingest is [Group]'s. The primary is a
    node ({!node}) on the replay loop that logs each batch through a
    {!Group.Log} and flushes the WAL {e before} any byte of it ships,
    so a [kill -9] of the primary (including mid-frame) is survivable
    by construction: a coordinator recovers the durable log, re-ships
    the tail to every survivor at a higher term, and verifies
    bit-identical convergence via state digests.

    Wire payloads are the {!Group.Frame} strings plus four control
    payloads: ["A <acked>"] (follower acks its contiguous prefix on
    every heartbeat), ["G"] / ["X <digest>"] (digest request/reply)
    and ["Q"] (quit). *)

val surface : Engine.Controller.t -> string
(** The full bit-identity surface, unhashed: plan bytes, utility bits,
    planner float accumulators, counter fields, lifetime delta count
    and epoch phase. Two controllers have equal surfaces iff the
    replication invariant holds between them. *)

val digest : Engine.Controller.t -> string
(** A compact, space-free hash of {!surface}, for the wire. *)

(** {1 Follower process} *)

type serve_outcome =
  | Quit of Group.Follower.t
      (** a primary said ["Q"] — clean shutdown; the follower's final
          state *)
  | Orphaned  (** no primary (re)connected or spoke within the idle
                  timeout — the supervisor lost us *)

val serve :
  ?idle_timeout_s:float ->
  ?policy:Engine.Controller.epoch_policy ->
  endpoint:Transport_socket.endpoint ->
  Mmd.Instance.t ->
  serve_outcome
(** Run the follower loop: accept a connection, hand every frame to
    {!Group.Follower.receive}, ack each heartbeat it accepts, and —
    when the connection drops (primary crashed) — go back to
    accepting, so a recovery coordinator or successor primary can take
    over. [idle_timeout_s] (default 30) bounds how long the process
    lingers with no primary talking to it. *)

(** {1 Primary process} *)

type primary

val primary :
  ?policy:Engine.Controller.epoch_policy ->
  ?heartbeat_every:int ->
  ?wal:Engine.Wal.writer ->
  endpoints:Transport_socket.endpoint list ->
  Mmd.Instance.t ->
  primary
(** Dial every follower (with {!Transport_socket.connect}'s backoff)
    and start a controller on [inst]. A heartbeat, which pumps the
    followers' acks, follows every record whose seq is a multiple of
    [heartbeat_every] (default 8). *)

val node : primary -> Engine.Node.t
(** The primary as a node: [apply_batch] applies each delta through
    {!Engine.Controller.apply}, logs the batch through a {!Group.Log},
    flushes the WAL once, then ships each record at term 0 to every
    follower ([apply] is a batch of one). Followers never replan
    outside an epoch, so a [replan] before {!finish} makes the digests
    differ. *)

val tear : primary -> Engine.Delta.t -> unit
(** Log the delta (flushed, not applied) and write the first half of
    its encoded frame to every follower — the mid-frame kill: the
    caller SIGKILLs itself right after. *)

type audit = {
  applied : int;  (** deltas the primary's controller applied *)
  followers : int;
  divergent : int;  (** followers whose digest is not [digest] *)
  converged : bool;  (** every follower acked [last_seq] *)
  last_seq : int;  (** the last record logged *)
  digest : string;  (** the primary's *)
  heartbeat_timeouts : int;
      (** heartbeats, summed over followers, that no ack answered
          within the 0.25 s failure-detection deadline *)
}

val finish : ?term:int -> primary -> audit
(** Heartbeat/retransmit rounds at [term] (default 0; at most 64
    rounds) until every follower acks the last record, then compare
    each follower's digest with the primary's and send ["Q"]. *)

(** {1 Recovery coordinator} *)

val recover_and_verify :
  ?policy:Engine.Controller.epoch_policy ->
  endpoints:Transport_socket.endpoint list ->
  wal_path:string ->
  term:int ->
  Mmd.Instance.t ->
  (audit, string) result
(** After the primary died: recover the durable WAL into a fresh
    primary's controller and log (so [applied] counts the WAL's
    records), and {!finish} it at [term], which must be above the
    dead primary's: every survivor gets the tail it is missing and is
    audited against the WAL replay. [Error _] when the WAL is
    unreadable or a survivor never catches up. *)
