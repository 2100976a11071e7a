(** Write-ahead log for delta streams.

    The plain {!Delta} text log is the human input format; the WAL is
    what the engine persists and ships. After a text magic line, every
    delta is one binary record, written once and then logged, shipped
    to followers, retransmitted and verified as the same bytes:

    {v
    mmd-engine-wal v2\n
    [a7 57] [len: u24 LE] [len check] [crc32 of payload: u32 LE] [payload]
    ...
    v}

    The payload holds the sequence number (from 1), a kind byte and the
    delta's fields: ints as zigzag varints and floats as their raw
    IEEE-754 bits, so [-0.], infinities, NaN payloads and subnormals
    read back bit for bit. The CRC covers the sequence number, so a
    record replayed at the wrong position is detected just like a
    flipped byte.

    {!recover_string} never raises on bad data: a record that fails to
    verify is {e quarantined} (skipped, with its byte offset and the
    reason), recovery scans forward to the next offset where a whole
    record verifies and continues from there. The crash-recovery
    contract is "replay everything that verifiably survived, report
    exactly what did not". *)

val magic : string
(** ["mmd-engine-wal v2"], the first line of every WAL this build
    writes. *)

val is_wal : string -> bool
(** Does the text (or file content) start with the magic line of any
    WAL version? A WAL of another version is refused by {!recover_string}
    rather than read as a plain delta log. *)

val record_to_string : seq:int -> Delta.t -> string
(** One binary record.
    @raise Invalid_argument when [seq < 1] or a join's loads do not
    match its capacity arity (the text format cannot say that either). *)

val record_of_string : string -> (int * Delta.t, string) result
(** Verify and decode one whole record; [Ok (seq, delta)] only when
    the header is sound {e and} the CRC matches {e and} the payload
    decodes to exactly its length. *)

val record_of_substring : string -> pos:int -> len:int -> (int * Delta.t, string) result
(** {!record_of_string} on [s.[pos .. pos+len-1]], without copying it
    out: how a follower decodes the record inside a shipped frame.
    @raise Invalid_argument on an out-of-bounds range (never on bad
    bytes inside it). *)

val to_string : ?first_seq:int -> Delta.t list -> string
(** Whole log: magic line plus one record per delta, sequence numbers
    from [first_seq] (default 1). *)

type quarantined = {
  offset : int;  (** byte offset of the damaged record in the log *)
  reason : string;
}

type recovery = {
  records : (int * Delta.t) list;  (** surviving [(seq, delta)], in file order *)
  quarantined : quarantined list;
      (** one entry per record lost to damage (or replayed out of
          order), in file order *)
  last_seq : int;  (** highest sequence number recovered; 0 when none *)
  torn_tail : bool;
      (** the file ended mid-record — the signature of a crash during
          an append *)
}

val recover_string : ?first_seq:int -> string -> (recovery, string) result
(** Recover every verifiable record. [Error] only when the text is not
    a WAL this build reads (missing or garbled magic line, or the magic
    of another version, which the message names); data damage after
    the magic line is reported through [quarantined], never as
    [Error]. [first_seq] (default 1) is the sequence number the log's
    first record was written with, as in {!to_string}: damage before
    the first record that verifies is counted as the records between
    [first_seq] and that record (at most one per minimal record the
    damaged bytes could hold), just as a gap between two verified
    records is. *)

val recover_file : ?first_seq:int -> string -> (recovery, string) result
(** {!recover_string} on a file, read in 64 KiB blocks: a long shipped
    log recovers in memory proportional to its surviving records, never
    holding the whole file as one string. Same result as the string
    path on the same bytes. IO errors become [Error]. *)

val write_file : ?first_seq:int -> string -> Delta.t list -> unit
(** Write a whole log crash-safely through {!Atomic_file.write}: tmp
    file, fsync, atomic rename, fsync of the directory. *)

(** {1 Incremental appending}

    A long-running engine appends each delta as it is applied, so that
    after a crash the WAL holds everything the controller saw. *)

type writer

val append_file : ?next_seq:int -> string -> writer
(** Open [path] for appending (created if missing, with a magic line).
    Records are numbered from [next_seq] (default 1) — resume with
    [last_seq + 1] of a prior {!recover_file}. *)

val append : writer -> Delta.t -> int
(** Append one record and flush it to the OS; returns the sequence
    number assigned. *)

val append_tee : ?flush:bool -> writer -> Delta.t -> int * string
(** {!append}, additionally returning the exact record written —
    the tee point for replication: the primary ships the identical
    bytes it persisted, so a follower verifies the same CRC the local
    recovery would. [?flush] (default [true]) controls the per-record
    OS flush: batch appenders pass [false] and call {!flush_writer}
    once per batch — identical bytes on disk, one syscall instead of
    one per record. *)

val flush_writer : writer -> unit
(** Flush any buffered output to the OS. {!append} already flushes per
    record; this is the batch-end barrier for [append_tee ~flush:false]
    and the belt-and-braces barrier before a deliberate [exit] (e.g.
    the CLI's simulated crash). *)

val close : writer -> unit
