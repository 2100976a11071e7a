(** Startup recovery: which durable state to start from, and restoring it.

    After a crash the engine has (up to) three ways back: restore the
    checkpoint chain and replay only the log tail past its coverage,
    load the latest snapshot and replay its (usually longer) tail, or
    replay the whole log from the instance. Both state files are the
    same {!Checkpoint} format, so which is cheaper depends on staleness
    and size — a checkpoint taken two records ago makes the tail path
    nearly free; a snapshot taken at record 10 of 100k is pure overhead
    on top of what is effectively a full replay anyway.

    {!choose} prices the paths with a linear cost model (records to
    {e apply} dominate; state bytes to parse are the secondary term)
    and picks the cheapest. The constants are rough and fixed, but the
    decision only needs the ratio, so rough is enough except where two
    paths cost the same and either choice is fine. {!open_} is the one
    recovery start: it prices what is on disk, restores the cheapest
    path and records the choice in the restored controller's counters. *)

type choice = Counters.recovery_path = Snapshot_tail | Full_replay | Chain_tail

val choose :
  total_records:int -> (choice * int * int) list -> (choice * float) option
(** The cheapest candidate [(choice, bytes, covered)] — a state of
    [bytes] covering the first [covered] of the log's [total_records]
    records; [(Full_replay, 0, 0)] for a replay from the instance — and
    its estimated seconds. Ties go to the chain, then the snapshot.
    [None] on an empty list. *)

val choice_to_string : choice -> string
(** ["chain+tail"], ["snapshot+tail"] or ["full-replay"]. *)

type opened = {
  state : Checkpoint.recovered;
      (** the restored controller and the deltas it covers; the caller
          replays the log records with sequence [> covered] *)
  choice : choice;
  paths : (choice * float option) list;
      (** every path offered (chain, snapshot, full replay, in that
          order) with its estimated seconds; [None] when it cannot be
          used *)
  fell_back : string option;
      (** [Some why] when the snapshot file was damaged (why) and its
          previous generation was restored instead *)
}

val open_ :
  ?policy:Controller.epoch_policy ->
  ?instance:Mmd.Instance.t ->
  ?snapshot:string ->
  ?chain:string ->
  total_records:int ->
  first_seq:int ->
  unit ->
  (opened, string) result
(** Start from the cheapest durable state. The candidates are the chain
    at [chain], the snapshot at [snapshot] and a full replay from
    [instance], against a durable log holding seqs [first_seq] through
    [total_records]. Each state file is read once.

    - A snapshot that does not verify or restore (missing, truncated,
      corrupt, foreign) is priced and restored as its previous
      generation ({!Snapshot.previous_path}); [fell_back] says why.
    - A candidate that cannot reach [first_seq - 1] is dropped: a
      compacted log ([first_seq > 1]) has no full replay, and a state
      that stops short of it leaves a gap.
    - With a full replay on offer, a state that covers more records
      than the log holds is dropped as well.

    Replaying the tail past [covered] stays with the caller. [Error]
    (never an exception) when no candidate is left, naming the gap on a
    compacted log. [policy] applies to the full replay; a restored state
    carries its own. *)
