(* Startup recovery-path selection: checkpoint-chain + WAL-tail replay
   vs snapshot + tail vs a full WAL replay from scratch. Replaying a
   record means running it through the planner's incremental apply —
   orders of magnitude more expensive than parsing it — so the model
   prices a path by the records it must APPLY plus the bytes it must
   parse back into a controller. Both files are the same format; the
   chain is usually written more often, so its tail is shorter, but it
   grows with history until a full increment is appended. *)

type choice = Snapshot_tail | Full_replay | Chain_tail

type estimate = {
  choice : choice;
  snapshot_seconds : float;
  replay_seconds : float;
  chain_seconds : float;
}

(* Calibrated from BENCH_engine on the reference machine (apply path
   ~15µs/record; state parse throughput ~80 MB/s → ~12ns/byte — the
   snapshot and the chain are the same format, so they share the
   per-byte rate). The point of the chooser is the RATIO, so rough
   constants already pick the right side except when two paths are
   within noise of each other — where either choice is fine. *)
let apply_seconds_per_record = 15e-6
let state_seconds_per_byte = 12e-9

let choose ?chain ~snapshot_bytes ~total_records ~covered () =
  let apply = apply_seconds_per_record and parse = state_seconds_per_byte in
  let tail_cost covered = float (max 0 (total_records - covered)) *. apply in
  let snapshot_seconds =
    if snapshot_bytes < 0 then infinity
    else (float snapshot_bytes *. parse) +. tail_cost covered
  in
  let replay_seconds = float total_records *. apply in
  let chain_seconds =
    match chain with
    | Some (chain_bytes, chain_covered) ->
        (float chain_bytes *. parse) +. tail_cost chain_covered
    | None -> infinity
  in
  let choice =
    (* Ties break toward the shorter-tail path: chain, then snapshot. *)
    if chain_seconds <= snapshot_seconds && chain_seconds <= replay_seconds
    then Chain_tail
    else if snapshot_seconds <= replay_seconds then Snapshot_tail
    else Full_replay
  in
  { choice; snapshot_seconds; replay_seconds; chain_seconds }

let assess ?chain_path ~snapshot_path ~total_records () =
  (* A file is usable when it has a valid increment that does not claim
     more records than the WAL holds (a stale WAL paired with a newer
     artifact is not a tail-replay situation). *)
  let usable path =
    match Checkpoint.peek path with
    | Some (bytes, covered, _) when covered <= total_records ->
        Some (bytes, covered)
    | _ -> None
  in
  let chain = Option.bind chain_path usable in
  match usable snapshot_path with
  | Some (snapshot_bytes, covered) ->
      choose ?chain ~snapshot_bytes ~total_records ~covered ()
  | None -> choose ?chain ~snapshot_bytes:(-1) ~total_records ~covered:0 ()

let choice_to_string = function
  | Snapshot_tail -> "snapshot+tail"
  | Full_replay -> "full-replay"
  | Chain_tail -> "chain+tail"

let note counters = function
  | Snapshot_tail -> Counters.note_recovery_path counters `Snapshot_tail
  | Full_replay -> Counters.note_recovery_path counters `Full_replay
  | Chain_tail -> Counters.note_recovery_path counters `Chain_tail
