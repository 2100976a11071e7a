(** Whole-state snapshots, crash-safe.

    A snapshot is a {!Checkpoint} chain of exactly one full increment:
    the same encoding, the same reader. Restoring yields a controller
    that continues exactly where the saved one stopped — same plan,
    same slot ids, same counters and latency histograms.

    Durability contract: {!write_file} goes through a tmp file, fsync
    and an atomic rename ({!Atomic_file.write}) and keeps the previous
    generation as [path.prev]; {!Recovery.open_} verifies each frame's
    length (truncation / torn write) and CRC (corruption) before
    parsing and falls back to the previous generation when the current
    file is damaged. *)

val save : Controller.t -> string

val load_result : string -> (Controller.t, string) result
(** Verify (length, checksum) and parse. All malformed input —
    truncation, corruption, bad sections — is an [Error] with context,
    never an exception. *)

val is_snapshot : string -> bool
(** Does the text start with an engine-state magic line? (Used by the
    CLI to accept either an instance file or a snapshot.) Files of the
    retired snapshot format count too, so loading them fails on the
    magic instead of as an instance. *)

val write_file : string -> Controller.t -> unit
(** Crash-safe write: [path.tmp] first, then the existing [path] (if
    any) is rotated to [path.prev], then the tmp file is atomically
    renamed over [path]. A crash at any point leaves a loadable
    generation on disk. *)

val previous_path : string -> string
(** [path.prev], the fallback generation written by {!write_file}. *)
