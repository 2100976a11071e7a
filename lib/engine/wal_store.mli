(** Segmented write-ahead log: a directory of ordinary {!Wal} files,
    each capped at a fixed record count and named by the global
    sequence number of its first record. Sequence numbers are global
    and continuous across segments, so {!recover_dir} is exactly the
    recovery of one monolithic WAL — while {!compact} can delete
    sealed segments once a checkpoint covers them, bounding the bytes
    recovery must ever read. *)

type t

val open_dir : ?segment_records:int -> string -> t
(** Open (creating if needed) a segmented WAL in [dir], capping each
    segment at [segment_records] (default 1024 — small enough that a
    checkpoint retires segments promptly, large enough that a segment
    outlives many batches). If segments already exist, appending
    resumes after the last record on disk.
    @raise Invalid_argument when [segment_records < 1]. *)

val append : t -> Delta.t -> int
(** Append one record (rolling to a new segment when the current one
    is full) and flush it; returns the global sequence number. *)

val append_tee : ?flush:bool -> t -> Delta.t -> int * string
(** {!append}, also returning the record written — same contract as
    {!Wal.append_tee}, including [?flush]. *)

val flush : t -> unit
val close : t -> unit

val next_seq : t -> int
(** The sequence number the next append will use. *)

type recovery = {
  records : (int * Delta.t) list;
  quarantined : (string * Wal.quarantined) list;
      (** (segment basename, quarantined record) *)
  first_seq : int;
      (** Lowest sequence still on disk — 1 unless compacted away. *)
  last_seq : int;
  torn_tail : bool;  (** The {e last} segment ends in a torn record. *)
  segments : int;
}

val recover_dir : string -> (recovery, string) result
(** Recover every segment in ascending order, quarantining
    cross-segment sequence regressions like in-file ones. *)

val compact : t -> covered:int -> int
(** Delete sealed segments every record of which has sequence
    [<= covered] (e.g. the coverage of the latest checkpoint); the
    open segment is never deleted. Returns the number of segments
    removed. *)

val segments : string -> (int * string) list
(** Segment files of a directory as [(first_seq, path)], ascending. *)

val dir : t -> string
