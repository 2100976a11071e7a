(** Startup recovery-path selection.

    After a crash the engine has (up to) three ways back: restore the
    checkpoint chain and replay only the WAL tail past its coverage,
    load the latest snapshot and replay its (usually longer) tail, or
    replay the whole WAL from scratch. Both state files are the same
    {!Checkpoint} format, so which is cheaper depends on staleness and
    size — a checkpoint taken two records ago makes the tail path
    nearly free; a snapshot taken at record 10 of 100k is pure overhead
    on top of what is effectively a full replay anyway.

    {!choose} prices the paths with a linear cost model (records to
    {e apply} dominate; state bytes to parse are the secondary term)
    and picks the cheaper one. The constants are rough and fixed, but
    the decision only needs the ratio, so rough is enough except where
    two paths cost the same and either choice is fine. The choice
    taken is recorded via {!Counters.note_recovery_path} by the caller
    (see {!note}). *)

type choice = Snapshot_tail | Full_replay | Chain_tail

type estimate = {
  choice : choice;
      (** the cheapest path (ties go to the shorter-tail path: chain,
          then snapshot) *)
  snapshot_seconds : float;
      (** estimated cost of snapshot load + tail replay; [infinity]
          when no usable snapshot exists *)
  replay_seconds : float;  (** estimated cost of the full replay *)
  chain_seconds : float;
      (** estimated cost of chain restore + tail replay; [infinity]
          when no usable chain exists *)
}

val choose :
  ?chain:int * int ->
  snapshot_bytes:int ->
  total_records:int ->
  covered:int ->
  unit ->
  estimate
(** Price the paths for a snapshot of [snapshot_bytes] covering
    [covered] of the WAL's [total_records] records, and optionally a
    checkpoint chain of [(chain_bytes, chain_covered)]. A negative
    [snapshot_bytes] means "no snapshot". *)

val assess :
  ?chain_path:string -> snapshot_path:string -> total_records:int -> unit -> estimate
(** {!choose} against the files on disk: {!Checkpoint.peek} of the
    snapshot and (when [chain_path] is given) of the chain — byte size
    and coverage of the last valid increment. Degrades each path to
    [infinity] when its file is missing, unreadable, structurally
    empty, or claims to cover more records than the WAL holds (a stale WAL
    paired with a newer artifact is not a tail-replay situation);
    with neither artifact usable the choice is [Full_replay]. *)

val choice_to_string : choice -> string

val note : Counters.t -> choice -> unit
(** Record the chosen path in the counters (and the exported
    [engine_recovery_path_total] series). *)
