module C = Engine.Controller
module F = Engine.Fault

let fault_of_kind = function
  | F.Drop_frame _ -> Some Transport.Drop
  | F.Dup_frame _ -> Some Transport.Duplicate
  | F.Reorder_frames _ -> Some Transport.Reorder
  | F.Truncate_frame _ -> Some Transport.Truncate
  | F.Hold_frames (_, n) -> Some (Transport.Hold n)
  | F.Link_partition (_, n) -> Some (Transport.Partition n)
  | F.Link_reset _ -> Some Transport.Reset
  | _ -> None

let fire g (e : F.event) =
  match e.F.kind with
  | F.Drop_frame r | F.Dup_frame r | F.Reorder_frames r | F.Truncate_frame r
  | F.Hold_frames (r, _) | F.Link_partition (r, _) | F.Link_reset r -> (
      match fault_of_kind e.F.kind with
      | Some fault -> ignore (Group.inject g ~follower:r fault)
      | None -> ())
  | F.Hand_over ->
      (* Planned failover mid-run: must be invisible in the final
         state. A revoked lease (no live successor) is fine — the old
         primary keeps serving. *)
      ignore (Group.hand_over g)
  | F.Follower_crash r -> ignore (Group.crash_follower g r)
  | F.Primary_crash ->
      Group.kill_primary g;
      Group.ensure_promoted g
  | F.Heartbeat_partition n ->
      Group.partition_heartbeats g n;
      (* Let the partition play out: the detector backs off (short) or
         promotes (long) on these idle ticks. *)
      for _ = 1 to n do
        Group.tick g
      done;
      Group.ensure_promoted g
  | F.Budget_shock _ | F.Stream_outage _ -> (
      match F.shock_delta (C.view (Group.primary g)) e.F.kind with
      | Some shock -> ignore (Group.absorb_shock g shock)
      | None -> ())
  | F.Task_exn | F.Corrupt_log | F.Torn_snapshot ->
      (* Other layers' faults; nothing to do at the replication layer. *)
      ()

let run g ~log ~schedule =
  List.iteri
    (fun i d ->
      ignore (Group.apply g d);
      List.iter (fire g) (F.at schedule (i + 1)))
    log;
  ignore (Group.quiesce g)

let reference ?policy inst ~log ~schedule =
  let ctrl = C.create ?policy inst in
  List.iteri
    (fun i d ->
      ignore (C.apply ctrl d);
      List.iter
        (fun (e : F.event) ->
          match e.F.kind with
          | F.Budget_shock _ | F.Stream_outage _ -> (
              match F.shock_delta (C.view ctrl) e.F.kind with
              | Some shock -> ignore (C.absorb_shock ctrl shock)
              | None -> ())
          | _ -> ())
        (F.at schedule (i + 1)))
    log;
  ctrl
