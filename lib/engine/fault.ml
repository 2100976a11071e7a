type kind =
  | Corrupt_log
  | Torn_snapshot
  | Budget_shock of float
  | Stream_outage of int
  | Task_exn
  (* Replication faults (PR 7): attack the WAL-shipping layer between
     a primary and its followers. Replica ids name followers (the
     initial primary is replica 0, followers are 1..N). *)
  | Drop_frame of int
  | Dup_frame of int
  | Reorder_frames of int
  | Truncate_frame of int
  | Follower_crash of int
  | Primary_crash
  | Heartbeat_partition of int
  (* Network faults (PR 9): attack the link itself — delay, partition
     and connection loss — plus the planned-failover path. *)
  | Hold_frames of int * int
  | Link_partition of int * int
  | Link_reset of int
  | Hand_over

type event = { at : int; kind : kind }
type schedule = event list

exception Injected of string

let kind_to_string = function
  | Corrupt_log -> "corrupt-log"
  | Torn_snapshot -> "torn-snapshot"
  | Budget_shock f -> Printf.sprintf "budget-shock %.3f" f
  | Stream_outage s -> Printf.sprintf "stream-outage %d" s
  | Task_exn -> "task-exn"
  | Drop_frame r -> Printf.sprintf "drop-frame @%d" r
  | Dup_frame r -> Printf.sprintf "dup-frame @%d" r
  | Reorder_frames r -> Printf.sprintf "reorder-frames @%d" r
  | Truncate_frame r -> Printf.sprintf "truncate-frame @%d" r
  | Follower_crash r -> Printf.sprintf "follower-crash %d" r
  | Primary_crash -> "primary-crash"
  | Heartbeat_partition n -> Printf.sprintf "heartbeat-partition %d" n
  | Hold_frames (r, n) -> Printf.sprintf "hold-frames @%d for %d" r n
  | Link_partition (r, n) -> Printf.sprintf "link-partition @%d for %d" r n
  | Link_reset r -> Printf.sprintf "link-reset @%d" r
  | Hand_over -> "hand-over"

let random_kind rng ~num_streams =
  match Prelude.Rng.int rng 5 with
  | 0 -> Corrupt_log
  | 1 -> Torn_snapshot
  | 2 -> Budget_shock (Prelude.Rng.uniform rng ~lo:0.3 ~hi:0.8)
  | 3 -> Stream_outage (Prelude.Rng.int rng (max 1 num_streams))
  | _ -> Task_exn

let generate ~rng ~deltas ~num_streams ~count =
  let events =
    List.init count (fun _ ->
        { at = 1 + Prelude.Rng.int rng (max 1 deltas);
          kind = random_kind rng ~num_streams })
  in
  (* Stable sort keeps same-boundary faults in generation order. *)
  List.stable_sort (fun a b -> compare a.at b.at) events

(* Kept separate from [random_kind] so existing seeded schedules — and
   the E16 results built on them — are unchanged by the new kinds. *)
let random_replication_kind rng ~replicas =
  let follower () = 1 + Prelude.Rng.int rng (max 1 replicas) in
  match Prelude.Rng.int rng 7 with
  | 0 -> Drop_frame (follower ())
  | 1 -> Dup_frame (follower ())
  | 2 -> Reorder_frames (follower ())
  | 3 -> Truncate_frame (follower ())
  | 4 -> Follower_crash (follower ())
  | 5 -> Primary_crash
  | _ -> Heartbeat_partition (5 + Prelude.Rng.int rng 60)

let generate_replication ~rng ~deltas ~replicas ~count =
  let events =
    List.init count (fun _ ->
        { at = 1 + Prelude.Rng.int rng (max 1 deltas);
          kind = random_replication_kind rng ~replicas })
  in
  List.stable_sort (fun a b -> compare a.at b.at) events

(* The full network-era vocabulary; again a separate draw so
   [generate_replication] schedules stay seed-stable. *)
let random_network_kind rng ~replicas =
  let follower () = 1 + Prelude.Rng.int rng (max 1 replicas) in
  match Prelude.Rng.int rng 11 with
  | 0 -> Drop_frame (follower ())
  | 1 -> Dup_frame (follower ())
  | 2 -> Reorder_frames (follower ())
  | 3 -> Truncate_frame (follower ())
  | 4 -> Follower_crash (follower ())
  | 5 -> Primary_crash
  | 6 -> Heartbeat_partition (5 + Prelude.Rng.int rng 60)
  | 7 -> Hold_frames (follower (), 1 + Prelude.Rng.int rng 8)
  | 8 -> Link_partition (follower (), 1 + Prelude.Rng.int rng 16)
  | 9 -> Link_reset (follower ())
  | _ -> Hand_over

let generate_network ~rng ~deltas ~replicas ~count =
  let events =
    List.init count (fun _ ->
        { at = 1 + Prelude.Rng.int rng (max 1 deltas);
          kind = random_network_kind rng ~replicas })
  in
  List.stable_sort (fun a b -> compare a.at b.at) events

let at schedule i = List.filter (fun e -> e.at = i) schedule

let shock_delta view kind =
  match kind with
  | Budget_shock f ->
      let m = View.m view in
      Some
        (Delta.Budget_resize
           (Array.init m (fun i ->
                let b = View.budget view i in
                if b = infinity then infinity else b *. f)))
  | Stream_outage s ->
      let s = s mod max 1 (View.num_streams view) in
      (* Priced out: the stream alone saturates every finite budget
         (the view clamps costs to budgets, so this is the maximum
         expressible cost). *)
      Some
        (Delta.Stream_cost_change
           { stream = s;
             costs = Array.init (View.m view) (fun i -> View.budget view i) })
  | Corrupt_log | Torn_snapshot | Task_exn
  | Drop_frame _ | Dup_frame _ | Reorder_frames _ | Truncate_frame _
  | Follower_crash _ | Primary_crash | Heartbeat_partition _
  | Hold_frames _ | Link_partition _ | Link_reset _ | Hand_over ->
      None

let corrupt_text ~rng text =
  let start =
    match String.index_opt text '\n' with Some i -> i + 1 | None -> 0
  in
  let eligible = ref [] in
  String.iteri
    (fun i c -> if i >= start && c <> '\n' then eligible := i :: !eligible)
    text;
  match !eligible with
  | [] -> text
  | positions ->
      let positions = Array.of_list positions in
      let pos = positions.(Prelude.Rng.int rng (Array.length positions)) in
      let b = Bytes.of_string text in
      (* XOR with a printable-range bit so the byte always changes but
         the file stays a text file. *)
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x08));
      Bytes.to_string b

let tear_text ~rng text =
  let n = String.length text in
  if n <= 1 then text
  else String.sub text 0 (1 + Prelude.Rng.int rng (n - 1))

let raise_in_pool () =
  ignore
    (Prelude.Pool.float_init ~chunk:1 4 (fun i ->
         if i = 2 then raise (Injected "fault-injected pool task")
         else float i))
