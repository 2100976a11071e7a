(** Engine state on disk: the one encoding of a controller's state, an
    append-only chain of CRC-framed increments.

    A {e full} increment carries everything: a catalog line (stream
    count, [m], [mc], instance name), every active slot's spec, every
    cost row, the budget, the free order, and the controller/planner
    state — plan, admitted set, hex float accumulators, counters,
    histograms, epoch phase. A {e diff} increment carries the view
    {e diff} since its parent (churned slot specs, freed slots,
    changed cost rows, the budget when dirty, the free order) plus the
    same, small, controller/planner state.

    A chain starts with a full increment. {!Snapshot} writes a chain of
    exactly one; {!create_writer} appends to a chain. Recovery rebuilds
    the view from the last full increment on a catalog-only view (zero
    users), applies the diffs after it, installs the last increment's
    controller state, and the caller replays only the WAL tail beyond
    [covered] — bit-identical to full replay, with no replans and no
    per-record planner bookkeeping for the covered prefix. Segments
    the chain covers are then safe to delete with
    {!Wal_store.compact}.

    Torn or corrupt increments invalidate themselves and everything
    after them (later diffs build on them); recovery falls back to the
    longest valid prefix. A chain with zero valid increments is an
    [Error] — callers fall back to full replay. No input makes a
    reader raise.

    Format (version-gated by the magic line, all floats lossless [%h]):

    {v
    mmd-engine-state v1
    F <covers> <body-bytes> <crc32-hex>
    <body>
    I <covers> <body-bytes> <crc32-hex>
    <body>
    ...
    v} *)

val magic : string

val to_string : Controller.t -> string
(** A whole chain of one full increment: the snapshot encoding. *)

(** {1 Writing} *)

type writer

val create_writer : path:string -> Controller.t -> writer
(** Open (creating if needed) a chain at [path] for appending, cut
    back to its valid prefix. The first increment is full on a fresh
    chain and whenever the controller is not at the chain's last
    increment (resumed past it), so it restores on its own. *)

val note : writer -> View.applied -> unit
(** Record what a delta touched, so the next increment's view diff
    covers it. Call with every {!View.apply} result between
    checkpoints ({!Controller.apply_batch} callers can tee this from
    the WAL append site). *)

val checkpoint : writer -> Controller.t -> unit
(** Append one increment covering the controller's current
    [deltas_applied], then reset the dirty set. *)

val covered : writer -> int
(** [deltas_applied] at the last appended (or resumed-from) increment. *)

val increments : writer -> int
(** Valid increments in the chain, the resumed-from ones included. *)

val close_writer : writer -> unit
val writer_path : writer -> string

(** {1 Recovery} *)

type recovered = {
  ctrl : Controller.t;
  covered : int;  (** deltas applied at the restored increment *)
  increments : int;  (** increments in the valid prefix *)
  torn : bool;  (** a torn/corrupt suffix was discarded *)
}

val recover : path:string -> (recovered, string) result
(** Rebuild the controller at the last valid increment. The caller
    replays WAL records with sequence [> covered] through the ordinary
    {!Controller.apply} path to reach the crash point. *)

val recover_string : string -> (recovered, string) result
(** {!recover} on the chain's text. *)

val of_string : string -> (Controller.t, string) result
(** Restore a chain that must be whole: a damaged frame anywhere is an
    [Error] that says why it failed (truncated or checksum mismatch)
    instead of a shorter recovery. *)

val peek : string -> (int * int * int) option
(** [(chain_bytes, covered, increments)] of the last valid increment,
    without building a view — the recovery cost model's input. [None]
    when the file is missing, not a chain, or has no valid increment. *)
