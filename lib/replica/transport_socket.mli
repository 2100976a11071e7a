(** Socket-backed replication links.

    The byte-level counterpart of the in-process queue transport:
    frames are wrapped by {!Frame_codec} and moved over a real Unix
    socket (TCP loopback or a Unix-domain path), so partial reads,
    short writes, torn frames and connection resets are exercised by
    the actual OS I/O path rather than simulated.

    Two layers:

    - {b Plumbing} ([listen]/[accept]/[connect]/[send_frame]/
      [recv_frame]) — deadline-bounded primitives shared by the
      in-process loopback link and the multi-process replica runner
      ({!Proc}). [connect] retries with capped exponential backoff, so
      a follower process can dial a primary that has not bound yet.
    - {b The {!loopback} link} — a self-contained {!Transport.link}
      whose two ends live in the calling process (its own listener,
      one dialed and one accepted connection). It routes every send
      through the shared {!Transport.Gate}, so the chaos harness arms
      the same faults on a socket link as on a queue link; [Truncate]
      writes half the {e encoded} frame and tears the connection, and
      [Reset] drops both fds abortively and reconnects — both heal
      through the codec's torn-frame invalidation plus protocol-level
      retransmit. *)

type endpoint =
  | Tcp of string * int  (** host, port; port 0 binds an ephemeral one *)
  | Unix_sock of string  (** filesystem path *)

val endpoint_of_string : string -> (endpoint, string) result
(** Parse the CLI syntax: ["unix:<path>"], or ["<host>:<port>"]. *)

(** {1 Plumbing} *)

val listen : ?backlog:int -> endpoint -> Unix.file_descr
(** Bind and listen. A [Unix_sock] path is unlinked first; a [Tcp]
    socket gets [SO_REUSEADDR]. *)

val accept : ?deadline_s:float -> Unix.file_descr -> Unix.file_descr option
(** One connection, or [None] if nothing arrived within [deadline_s]
    (default 5s). *)

val connect :
  ?attempts:int ->
  ?base_backoff_s:float ->
  ?backoff_cap_s:float ->
  endpoint ->
  Unix.file_descr
(** Dial with capped exponential backoff between attempts (defaults:
    40 attempts, 10ms base, 500ms cap — about 15s of patience).
    @raise Failure when every attempt is refused. *)

val send_frame : Unix.file_descr -> string -> unit
(** Encode one payload and write it fully, riding out short writes. *)

type recv_result =
  | Frame of string  (** one complete, CRC-verified payload *)
  | Timeout  (** nothing decodable arrived within the deadline *)
  | Closed  (** peer closed; a partial frame in [dec] is torn *)

val recv_frame :
  ?deadline_s:float ->
  buf:Bytes.t ->
  Unix.file_descr ->
  Frame_codec.Decoder.t ->
  recv_result
(** Next frame from the stream, feeding [dec] from the socket as
    needed (deadline default 5s). [buf] (non-empty) is the caller's
    read scratch, reused across calls; its contents are meaningless
    between calls. On [Closed], reset the decoder before reusing it on
    a new connection. A framing error (bad magic/CRC) is reported as
    [Closed] — the stream is unusable. *)

val close_quiet : Unix.file_descr -> unit
(** Close, ignoring errors (already-closed fds included). *)

(** {1 In-process loopback link} *)

val loopback : ?endpoint:endpoint -> unit -> Transport.link
(** A {!Transport.link} over a private socket pair (default: TCP on
    127.0.0.1 with an ephemeral port). Deterministic for the protocol
    layer: [recv] blocks only while frames are provably in flight, so
    a drain returns exactly the frames sent. [close] releases the
    three fds (and unlinks a Unix-domain path). *)

val reconnects_total : unit -> int
(** Process-wide count of loopback reconnections (resets and torn
    connections healed) — also exported as the
    [replica_socket_reconnects_total] counter. *)
