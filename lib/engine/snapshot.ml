(* Whole-state snapshots: a checkpoint chain of one full increment,
   written crash-atomically with the previous generation kept as a
   fallback. *)

let save = Checkpoint.to_string

let load_result text =
  Obs.Span.with_ ~name:"snapshot.read" (fun () ->
      Result.map_error
        (fun msg -> "Snapshot.load: " ^ msg)
        (Checkpoint.of_string text))

let load text =
  match load_result text with Ok ctrl -> ctrl | Error msg -> failwith msg

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
         or corrupted, [read_file_result] falls back to it. *)
      Atomic_file.write ~previous:(previous_path path) path (save ctrl);
      Obs.Hist.observe (Lazy.force m_write_seconds)
        (Obs.Clock.elapsed_since t0))

type generation = Current | Previous

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_file_result path =
  let try_load p =
    match read_all p with
    | text -> load_result text
    | exception Sys_error msg -> Error msg
  in
  match try_load path with
  | Ok ctrl -> Ok (ctrl, Current)
  | Error primary -> (
      let prev = previous_path path in
      if Sys.file_exists prev then
        match try_load prev with
        | Ok ctrl -> Ok (ctrl, Previous)
        | Error fallback ->
            Error
              (Printf.sprintf "%s; previous generation also unusable: %s"
                 primary fallback)
      else Error primary)
