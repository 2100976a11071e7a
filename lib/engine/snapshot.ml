(* Whole-state snapshots: a checkpoint chain of one full increment,
   written crash-atomically with the previous generation kept as a
   fallback. *)

let save = Checkpoint.to_string

let load_result text =
  Obs.Span.with_ ~name:"snapshot.read" (fun () ->
      Result.map_error
        (fun msg -> "Snapshot.load: " ^ msg)
        (Checkpoint.of_string text))

let is_snapshot text =
  List.exists
    (fun prefix -> String.starts_with ~prefix text)
    [ Checkpoint.magic; "mmd-engine-snapshot" ]

let previous_path path = path ^ ".prev"

let m_write_seconds = lazy (Obs.Metrics.histogram "snapshot_write_seconds")

let write_file path ctrl =
  Obs.Span.with_ ~name:"snapshot.write" (fun () ->
      let t0 = Obs.Clock.now () in
      (* Keep the old generation around: if this write turns out torn
         or corrupted, [Recovery.open_] falls back to it. *)
      Atomic_file.write ~previous:(previous_path path) path (save ctrl);
      Obs.Hist.observe (Lazy.force m_write_seconds)
        (Obs.Clock.elapsed_since t0))
