(** Crash-atomic whole-file replacement. *)

val write : ?previous:string -> string -> string -> unit
(** [write ?previous path text] writes [text] to [path.tmp], fsyncs
    it, renames the current [path] (if any) to [previous] when given,
    renames the tmp file over [path] and fsyncs the directory. A crash
    at any point leaves either the old or the new file at [path] (or,
    with [previous], at [previous]), never a mix. *)
