(** Write-ahead log for delta streams.

    The plain {!Delta} text log is great for humans but fragile: one
    malformed line kills the whole replay, and a crash mid-write leaves
    a torn final record. The WAL wraps each delta line in a framed
    record

    {v
    mmd-engine-wal v1
    <seq> <crc32-hex> <delta-line>
    ...
    v}

    where [seq] numbers records from 1 and the CRC-32 covers
    ["<seq> <delta-line>"], so a record replayed at the wrong position
    is detected just like a flipped byte.

    {!recover_string} never raises on bad data: corrupted, truncated
    or out-of-order records are {e quarantined} (skipped, with a
    line-numbered reason) and recovery continues with the remaining
    good records — the crash-recovery contract is "replay everything
    that verifiably survived, report exactly what did not". *)

val magic : string

val is_wal : string -> bool
(** Does the text (or file content) start with the WAL magic line? *)

val record_to_string : seq:int -> Delta.t -> string
(** One framed record line, no trailing newline. *)

val record_of_string : string -> (int * Delta.t, string) result
(** Parse and verify one record line; [Ok (seq, delta)] only when the
    frame is well-formed {e and} the CRC matches {e and} the payload
    parses. *)

val to_string : ?first_seq:int -> Delta.t list -> string
(** Whole log: magic line plus one record per delta, sequence numbers
    from [first_seq] (default 1). *)

type quarantined = {
  line : int;  (** 1-based line number in the log file *)
  reason : string;
}

type recovery = {
  records : (int * Delta.t) list;  (** surviving [(seq, delta)], in file order *)
  quarantined : quarantined list;  (** skipped records, in file order *)
  last_seq : int;  (** highest sequence number recovered; 0 when none *)
  torn_tail : bool;
      (** the file ended mid-record (no trailing newline and the
          partial line did not verify) — the signature of a crash
          during an append *)
}

val recover_string : string -> (recovery, string) result
(** Recover every verifiable record. [Error] only when the text is not
    a WAL at all (missing/garbled magic line); data damage after the
    magic line is reported through [quarantined], never as [Error]. *)

val recover_channel : in_channel -> (recovery, string) result
(** {!recover_string} reading the channel in 64 KiB blocks and
    verifying one line at a time: a long shipped log recovers in memory
    proportional to its surviving records, never holding the whole
    file as one string. Same result as the string path on the same
    bytes, including quarantine and torn-tail classification. The
    channel's position afterwards is unspecified (up to a block past
    the last line examined). *)

val recover_file : string -> (recovery, string) result
(** {!recover_channel} on a file; IO errors become [Error]. *)

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
(** {!append}, additionally returning the exact framed line written —
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
