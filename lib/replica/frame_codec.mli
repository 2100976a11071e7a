(** Length-prefixed wire framing for the socket transport.

    The in-process transport moves whole strings; a byte stream does
    not, so every replication frame is wrapped before it touches a
    socket:

    {v
    +-----+-----+-----+------------+------------+----------------+
    | 'V' | 'F' | ver |  len (u32) |  crc (u32) |  payload bytes |
    +-----+-----+-----+------------+------------+----------------+
       0     1     2      3..6         7..10        11..11+len-1
    v}

    [len] and [crc] are big-endian; [crc] is the CRC-32 of the payload
    alone. The decoder is incremental — it accepts bytes in arbitrary
    chunks (partial reads, short writes, frames split mid-header) and
    yields exactly the payloads that arrive complete and verified.

    A {e truncated final frame} (connection died mid-write) is
    self-invalidating: the decoder simply never completes it, and
    {!Decoder.reset} on disconnect discards the partial bytes — the
    next connection starts a clean stream, nothing desyncs. Anything
    else malformed (bad magic, unknown version, oversized length,
    CRC mismatch) is a {e stream} error: the link must be torn down
    and re-established, because a byte stream that has lost framing
    cannot be trusted to find it again. *)

val version : int
(** Wire format version written by {!encode} (currently 1). Decoders
    reject frames from any other version — bump it when the header or
    checksum changes incompatibly. *)

val header_length : int
(** Bytes before the payload (11). *)

val encode : string -> string
(** The framed bytes for one payload.
    @raise Invalid_argument when the payload exceeds 16 MiB, the cap
    on [len]. A length above it is treated as framing corruption, not
    a real frame — it bounds how much memory a desynced or hostile
    stream can make the decoder buffer. *)

val encoded_length : string -> int
(** [header_length + String.length payload]. *)

module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> ?pos:int -> ?len:int -> string -> unit
  (** Append a chunk of received bytes ([pos]/[len] default to the
      whole string). Chunk boundaries are arbitrary. *)

  val next : t -> (string option, string) result
  (** [Ok (Some payload)] — one complete, CRC-verified frame (call
      again: a chunk may complete several frames). [Ok None] — the
      buffered bytes end mid-frame; feed more. [Error _] — the stream
      has lost framing (bad magic/version/length/CRC); the connection
      must be reset and the decoder {!reset} with it. *)

  val buffered : t -> int
  (** Bytes held for an incomplete frame. Nonzero at EOF means the
      peer died mid-write — the torn-frame signature. *)

  val reset : t -> unit
  (** Discard any partial frame; the next {!feed} starts a fresh
      stream. Call on every disconnect. *)
end
