(** Multi-process replica sets.

    Each follower is its own OS process: it listens on a socket,
    ingests {!Frame_codec}-framed {!Group.Frame} payloads from the
    primary, and applies the shipped WAL records through the ordinary
    {!Engine.Controller.apply} path — the same state machine as the
    in-process group, with the process boundary and the real network
    in between. A [kill -9] of the primary (including mid-frame) is
    survivable by construction: the primary appends + flushes each
    record to its WAL {e before} shipping, so a coordinator can
    recover the durable log, re-ship the tail to every survivor at a
    higher term, and verify bit-identical convergence via state
    digests.

    Wire payloads are the {!Group.Frame} strings plus four control
    payloads: ["A <acked>"] (follower acks its contiguous prefix on
    every heartbeat), ["G"] / ["X <digest>"] (digest request/reply)
    and ["Q"] (quit). *)

val digest : Engine.Controller.t -> string
(** A compact, space-free digest of the full bit-identity surface:
    plan bytes, utility bits, planner float accumulators, counter
    fields, lifetime delta count and epoch phase. Two controllers
    digest equal iff the replication invariant holds between them. *)

(** {1 Follower process} *)

type served = {
  fterm : int;  (** highest term the follower adopted *)
  acked : int;  (** contiguous prefix applied *)
  state_digest : string;
}

type serve_outcome =
  | Quit of served  (** a primary said ["Q"] — clean shutdown *)
  | Orphaned  (** no primary (re)connected or spoke within the idle
                  timeout — the supervisor lost us *)

val serve :
  ?idle_timeout_s:float ->
  ?policy:Engine.Controller.epoch_policy ->
  endpoint:Transport_socket.endpoint ->
  Mmd.Instance.t ->
  serve_outcome
(** Run the follower loop: accept a connection, ingest frames
    (term-fenced, CRC-checked, buffered out of order, applied
    contiguously), ack on heartbeats, and — when the connection drops
    (primary crashed) — go back to accepting, so a recovery
    coordinator or successor primary can take over. [idle_timeout_s]
    (default 30) bounds how long the process lingers with no primary
    talking to it. *)

(** {1 Primary side} *)

type peer
(** One connected follower, from the primary's point of view. *)

val connect_peers : Transport_socket.endpoint list -> peer list
(** Dial every follower (with {!Transport_socket.connect}'s backoff,
    so followers may still be starting). *)

val peer_acked : peer -> int

val ship : peer list -> term:int -> shock:bool -> string -> unit
(** Send one WAL record, in a [Data] or [Shock] frame, to every peer (write errors are
    swallowed — a dead peer is the chaos being tested). *)

val heartbeat : peer list -> term:int -> last_seq:int -> tick:int -> unit
(** Send a heartbeat and pump any pending acks. *)

val catch_up :
  ?max_rounds:int ->
  peer list ->
  term:int ->
  history:(int, bool * string) Hashtbl.t ->
  last_seq:int ->
  bool
(** Heartbeat/retransmit rounds until every peer acks [last_seq]
    (true) or [max_rounds] (default 64) rounds pass (false). *)

val collect_digest : ?deadline_s:float -> peer -> string option
(** ["G"] → ["X <digest>"]. *)

val quit_peers : peer list -> unit
(** Send ["Q"] and close the connections. *)

val write_torn_frame : peer list -> term:int -> record:string -> unit
(** Write exactly the first half of one encoded Data frame to every
    peer — the mid-frame kill: the caller SIGKILLs itself right after,
    leaving a torn frame on every wire. *)

(** {1 Recovery coordinator} *)

type recovery_report = {
  survivors : int;
  divergent : int;  (** survivors whose digest differs from the WAL replay *)
  wal_records : int;
  reference_digest : string;
}

val recover_and_verify :
  ?policy:Engine.Controller.epoch_policy ->
  endpoints:Transport_socket.endpoint list ->
  wal_path:string ->
  term:int ->
  Mmd.Instance.t ->
  (recovery_report, string) result
(** After the primary died: recover the durable WAL, connect to every
    surviving follower at [term] (strictly above the dead primary's),
    re-ship the tail each one is missing, replay the same records
    through a fresh in-process controller for the reference digest,
    collect each survivor's digest, and send ["Q"]. [Error _] when the
    WAL is unreadable or a survivor never catches up. *)
