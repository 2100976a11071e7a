(* Startup recovery: choose among checkpoint-chain + log-tail replay,
   snapshot + tail and a full replay from the instance, and restore the
   chosen one. Replaying a record means running it through the
   planner's incremental apply — orders of magnitude more expensive
   than parsing it — so the model prices a path by the records it must
   APPLY plus the bytes it must parse back into a controller. Both
   state files are the same format; the chain is usually written more
   often, so its tail is shorter, but it grows with history until a
   full increment is appended. *)

type choice = Counters.recovery_path = Snapshot_tail | Full_replay | Chain_tail

(* Calibrated from BENCH_engine on the reference machine (apply path
   ~15µs/record; state parse throughput ~80 MB/s → ~12ns/byte — the
   snapshot and the chain are the same format, so they share the
   per-byte rate). The point of the chooser is the RATIO, so rough
   constants already pick the right side except when two paths are
   within noise of each other — where either choice is fine. *)
let apply_seconds_per_record = 15e-6
let state_seconds_per_byte = 12e-9

let seconds ~total_records (bytes, covered) =
  (float bytes *. state_seconds_per_byte)
  +. (float (max 0 (total_records - covered)) *. apply_seconds_per_record)

(* Ties break toward the shorter-tail path: chain, then snapshot. *)
let rank = function Chain_tail -> 0 | Snapshot_tail -> 1 | Full_replay -> 2

let choose ~total_records candidates =
  List.fold_left
    (fun best (choice, bytes, covered) ->
      let s = seconds ~total_records (bytes, covered) in
      match best with
      | Some (c, b) when b < s || (b = s && rank c <= rank choice) -> best
      | _ -> Some (choice, s))
    None candidates

let choice_to_string = function
  | Snapshot_tail -> "snapshot+tail"
  | Full_replay -> "full-replay"
  | Chain_tail -> "chain+tail"

type opened = {
  state : Checkpoint.recovered;
  choice : choice;
  paths : (choice * float option) list;
  fell_back : string option;
}

type candidate = {
  choice : choice;
  bytes : int;
  covered : int;
  fell_back : string option;
  restore : unit -> (Checkpoint.recovered, string) result;
  retry : string -> candidate option;
      (** the next generation, once this one failed to restore (why) *)
}

let open_ ?policy ?instance ?snapshot ?chain ~total_records ~first_seq () =
  let replay = Option.is_some instance && first_seq <= 1 in
  (* The tail past [covered] must still be on disk. With a full replay
     on offer, a state that claims more records than the log holds is
     passed over too: a stale log paired with a newer state is not a
     tail-replay situation. *)
  let reaches covered =
    covered >= first_seq - 1 && not (replay && covered > total_records)
  in
  let failures = ref [] in
  let failed path why = failures := (path ^ ": " ^ why) :: !failures in
  (* The first generation of a state file that verifies: the file
     itself, then (a snapshot only) the one {!Snapshot.write_file} kept
     before it. A snapshot must be whole; a chain may have lost a torn
     suffix. *)
  let rec state choice ?fell_back = function
    | [] -> None
    | path :: older -> (
        let next why =
          failed path why;
          state choice ~fell_back:why older
        in
        match Checkpoint.scan ~whole:(choice = Snapshot_tail) path with
        | Error why -> next why
        | Ok s ->
            let bytes, covered = Checkpoint.extent s in
            if not (reaches covered) then None
            else
              Some
                { choice; bytes; covered; fell_back;
                  restore = (fun () -> Checkpoint.restore s);
                  retry = next })
  in
  let files =
    (match chain with Some p -> [ (Chain_tail, [ p ]) ] | None -> [])
    @
    match snapshot with
    | Some p -> [ (Snapshot_tail, [ p; Snapshot.previous_path p ]) ]
    | None -> []
  in
  let replay_from inst =
    { choice = Full_replay; bytes = 0; covered = 0; fell_back = None;
      restore =
        (fun () ->
          Ok
            { Checkpoint.ctrl = Controller.create ?policy inst; covered = 0;
              increments = 0; torn = false });
      retry = (fun _ -> None) }
  in
  let offered =
    List.map fst files @ if instance = None then [] else [ Full_replay ]
  in
  let rec attempt candidates =
    let estimate c = (c.choice, c.bytes, c.covered) in
    match choose ~total_records (List.map estimate candidates) with
    | None -> (
        let gap =
          if first_seq <= 1 then []
          else
            [ Printf.sprintf
                "the log is compacted below seq %d and no state file covers \
                 seq %d"
                first_seq (first_seq - 1) ]
        in
        match gap @ List.rev !failures with
        | [] -> Error "no instance and no state file"
        | why -> Error (String.concat "; " why))
    | Some (choice, _) -> (
        let c = List.find (fun c -> c.choice = choice) candidates in
        let others = List.filter (fun c -> c.choice <> choice) candidates in
        match c.restore () with
        | Error why -> attempt (Option.to_list (c.retry why) @ others)
        | Ok r ->
            Counters.note_recovery_path (Controller.counters r.ctrl) choice;
            let seconds choice =
              List.find_opt (fun c -> c.choice = choice) candidates
              |> Option.map (fun c ->
                     seconds ~total_records (c.bytes, c.covered))
            in
            Ok
              { state = r; choice;
                paths = List.map (fun c -> (c, seconds c)) offered;
                fell_back = c.fell_back })
  in
  attempt
    (List.filter_map (fun (choice, paths) -> state choice paths) files
    @ if replay then List.map replay_from (Option.to_list instance) else [])
