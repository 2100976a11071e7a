(** One directed replication link (primary → follower).

    The replication protocol moves opaque strings over a
    [send]/[recv] contract, so the link behind it is swappable: the
    in-process queue backend here (a {!Prelude.Chan} of whole frames)
    and the socket backend in {!Transport_socket} (length-prefixed
    frames over a real fd) expose the same {!link} surface and share
    the same armable fault stage ({!Gate}), so the chaos harness
    drives identical fault semantics through both.

    Faults are one-shot: {!arm} stages exactly one corruption for the
    next {!send}, and the protocol's healing paths (CRC rejection,
    duplicate suppression, gap retransmit, reconnect) are exercised
    deterministically — no randomness lives in the transport. *)

type fault =
  | Drop  (** the next sent frame vanishes *)
  | Duplicate  (** the next sent frame is delivered twice *)
  | Reorder
      (** the next sent frame is held back and delivered {e after} the
          following send (the two frames swap); equivalent to
          [Hold 1] *)
  | Hold of int
      (** the next sent frame is held back and delivered only after
          [n] further sends have gone out (a long delay, not a loss);
          if the link goes idle first, the frame is released — it can
          no longer be overtaken *)
  | Truncate
      (** the next sent frame is cut short mid-bytes: the queue
          backend delivers half the frame's characters, the socket
          backend writes half the {e encoded} frame and tears the
          connection — a torn final frame on the wire *)
  | Partition of int
      (** the link partitions: the next sent frame and every frame
          after it are buffered (nothing delivered) until [n] further
          sends have elapsed, then everything is released in order —
          delay, not loss. An idle link heals the partition early. *)
  | Reset
      (** the connection drops abortively: the triggering frame and
          everything in flight at the transport level are lost (the
          socket backend reconnects underneath); frames held by the
          fault stage survive *)

type stats = {
  drops : int;
  dups : int;
  reorders : int;
  truncations : int;
  holds : int;
  partitions : int;
  resets : int;
}

(** The armable fault stage, shared by every backend. A backend
    supplies its primitive I/O as {!Gate.io} callbacks and routes each
    outgoing frame through {!Gate.send}; the gate decides which bytes
    actually reach the wire and accounts the faults it applies. *)
module Gate : sig
  type t

  type io = {
    deliver : string -> unit;  (** put one frame on the wire, intact *)
    truncate : string -> unit;
        (** deliver a torn version of the frame (backend chooses the
            byte-level meaning of "torn") *)
    reset : unit -> unit;
        (** lose everything in flight at the transport level *)
  }

  val create : unit -> t

  val send : t -> io -> string -> unit
  (** Route one frame through the armed fault (if any, disarming it),
      tick held-frame and partition countdowns, and release whatever
      has come due. *)

  val on_idle : t -> io -> bool
  (** The receiver found the link idle: heal an open partition and
      release every held frame (they can no longer be overtaken).
      Returns [true] when anything was released. *)

  val pending : t -> int
  (** Frames the gate is sitting on (held + partition-buffered). *)

  val arm : t -> fault -> unit
  val clear : t -> unit
  val stats : t -> stats
end

(** A backend-agnostic handle to one link. [Group] and the chaos
    harness speak only this type, so a replica set can mix queue and
    socket links freely. *)
type link = {
  send : string -> unit;
  recv : unit -> string option;
  pending : unit -> int;
      (** frames queued for delivery, including gate-held ones *)
  arm : fault -> unit;
  clear : unit -> unit;  (** drop everything in flight and disarm *)
  stats : unit -> stats;
  close : unit -> unit;
      (** release OS resources; the link is dead afterwards *)
}

val drain : link -> string list
(** Every deliverable frame, in order. *)

(** {1 In-process queue backend} *)

type t

val create : unit -> t

val send : t -> string -> unit
(** Enqueue a frame for delivery, applying (and disarming) the armed
    fault if any. *)

val recv : t -> string option
(** Next delivered frame in order; [None] when the link is idle. A
    frame held by {!Reorder}/{!Hold} is released once the queue is
    empty — it can no longer be overtaken — and an idle link heals an
    open {!Partition}. *)

val pending : t -> int
(** Frames queued (including gate-held ones). *)

val arm : t -> fault -> unit
(** Arm [fault] for the next {!send}. Re-arming replaces the previous
    armed fault. *)

val clear : t -> unit
(** Drop everything in flight and disarm — the link's end crashed. *)

val stats : t -> stats

val link_of : t -> link
(** The backend-agnostic view of a queue transport. *)

val queue_link : unit -> link
(** A fresh in-process link ([link_of (create ())]). *)
