module C = Engine.Controller
module Wal = Engine.Wal

(* ---------- Frame codec ---------- *)

module Frame = struct
  type t =
    | Data of { term : int; record : string }
    | Shock of { term : int; record : string }
    | Heartbeat of { term : int; last_seq : int; tick : int }
    | Lease of { term : int; last_seq : int; successor : int }

  let to_string = function
    | Data { term; record } ->
        String.concat "" [ "D "; string_of_int term; " "; record ]
    | Shock { term; record } ->
        String.concat "" [ "S "; string_of_int term; " "; record ]
    | Heartbeat { term; last_seq; tick } ->
        Printf.sprintf "H %d %d %d" term last_seq tick
    | Lease { term; last_seq; successor } ->
        Printf.sprintf "L %d %d %d" term last_seq successor

  let two_ints rest =
    match
      String.split_on_char ' ' rest |> List.filter (fun t -> t <> "")
    with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b -> Some (a, b)
        | _ -> None)
    | _ -> None

  (* [s] as "<tag> <term> <rest>": the tag's length, the term and the
     offset where [rest] starts (past the end when there is none). *)
  let split s =
    let n = String.length s in
    match String.index_opt s ' ' with
    | None -> Error "not a replication frame"
    | Some i -> (
        let j =
          match String.index_from_opt s (i + 1) ' ' with
          | Some j -> j
          | None -> n
        in
        let term_tok = String.sub s (i + 1) (j - i - 1) in
        match int_of_string_opt term_tok with
        | None -> Error (Printf.sprintf "bad term %S" term_tok)
        | Some term -> Ok (i, term, j + 1))

  let record_at s =
    match split s with
    | Ok (1, term, pos)
      when pos < String.length s && (s.[0] = 'D' || s.[0] = 'S') ->
        Some (s.[0] = 'S', term, pos)
    | Ok _ | Error _ -> None

  let of_string s =
    match split s with
    | Error _ as e -> e
    | Ok (i, term, pos) -> (
        let n = String.length s in
        let rest () = if pos >= n then "" else String.sub s pos (n - pos) in
        match String.sub s 0 i with
        | "D" when pos < n -> Ok (Data { term; record = rest () })
        | "S" when pos < n -> Ok (Shock { term; record = rest () })
        | "H" -> (
            match two_ints (rest ()) with
            | Some (last_seq, tick) -> Ok (Heartbeat { term; last_seq; tick })
            | None -> Error "bad heartbeat frame")
        | "L" -> (
            match two_ints (rest ()) with
            | Some (last_seq, successor) ->
                Ok (Lease { term; last_seq; successor })
            | None -> Error "bad lease frame")
        | tag -> Error (Printf.sprintf "unknown frame tag %S" tag))
end

(* ---------- Followers ---------- *)

type follower = {
  id : int;
  mutable ctrl : C.t;
  tr : Transport.link;
  mutable acked : int;  (** highest contiguously applied seq *)
  mutable fterm : int;  (** highest term seen *)
  pending : (int, bool * Engine.Delta.t) Hashtbl.t;
      (** verified records buffered out of order: seq -> (shock, delta) *)
  mutable hb_last_seq : int;  (** primary's announced last seq *)
  mutable alive : bool;
  mutable last_progress : float;  (** wall clock of the last acked advance *)
  m_lag_records : Obs.Metrics.gauge;
  m_lag_seconds : Obs.Metrics.gauge;
}

type config = {
  heartbeat_every : int;
  heartbeat_timeout : int;
  backoff_cap : int;
  max_backoffs : int;
}

let default_config =
  { heartbeat_every = 8; heartbeat_timeout = 24; backoff_cap = 128;
    max_backoffs = 3 }

let heartbeat_config = function
  | None -> default_config
  | Some hb when hb < 1 -> invalid_arg "heartbeat_every: need at least 1"
  | Some hb ->
      { default_config with
        heartbeat_every = hb;
        heartbeat_timeout = max (3 * hb) default_config.heartbeat_timeout }

type t = {
  inst : Mmd.Instance.t;
  policy : C.epoch_policy;
  labels : (string * string) list;
  cfg : config;
  mk_link : int -> Transport.link;
  mutable primary : C.t;
  mutable primary_id : int;
  mutable primary_alive : bool;
  mutable term : int;
  mutable next_seq : int;
  mutable clock : int;  (** logical ticks: one per applied record *)
  followers : follower array;  (** ids 1..N at indices 0..N-1 *)
  mutable zero : follower option;
      (** replica 0's follower record, created the first time the
          initial primary is demoted by a planned handover *)
  history : (int, bool * string) Hashtbl.t;
      (** the durable shipped log: seq -> (shock, WAL record bytes) *)
  mutable history_hi : int;
  wal : Wal.writer option;
  mutable partitioned_until : int;
  mutable suspicion : int;
  mutable deadline : int;  (** tick at which the failure detector fires *)
  mutable failovers_n : int;
  mutable handovers_n : int;
  mutable last_promote : float;
  m_failovers : Obs.Metrics.counter;
  m_promote : Obs.Hist.t;
  m_shipped : Obs.Metrics.counter;
  m_rejected : Obs.Metrics.counter;
  m_dups : Obs.Metrics.counter;
  m_retransmits : Obs.Metrics.counter;
  m_handovers : Obs.Metrics.counter;
  m_lease_grants : Obs.Metrics.counter;
  m_partitions : Obs.Metrics.counter;
}

let replica_labels labels id = labels @ [ ("replica", string_of_int id) ]

let mk_follower ~labels ~mk_link ~ctrl id =
  { id;
    ctrl;
    tr = mk_link id;
    acked = 0;
    fterm = 0;
    pending = Hashtbl.create 16;
    hb_last_seq = 0;
    alive = true;
    last_progress = Obs.Clock.now ();
    m_lag_records =
      Obs.Metrics.gauge
        ~labels:(replica_labels labels id)
        "replica_follower_lag_records";
    m_lag_seconds =
      Obs.Metrics.gauge
        ~labels:(replica_labels labels id)
        "replica_follower_lag_seconds" }

let create ?(policy = C.Every 64) ?(config = default_config) ?(labels = [])
    ?wal ?(mk_link = fun _ -> Transport.queue_link ()) ~replicas inst =
  if replicas < 1 then invalid_arg "Replica.Group.create: need at least 1 follower";
  if config.heartbeat_every < 1 || config.heartbeat_timeout < config.heartbeat_every
  then invalid_arg "Replica.Group.create: heartbeat_timeout < heartbeat_every";
  let mk_ctrl id = C.create ~policy ~labels:(replica_labels labels id) inst in
  { inst;
    policy;
    labels;
    cfg = config;
    mk_link;
    primary = mk_ctrl 0;
    primary_id = 0;
    primary_alive = true;
    term = 0;
    next_seq = 1;
    clock = 0;
    followers =
      Array.init replicas (fun i ->
          let id = i + 1 in
          mk_follower ~labels ~mk_link ~ctrl:(mk_ctrl id) id);
    zero = None;
    history = Hashtbl.create 1024;
    history_hi = 0;
    wal;
    partitioned_until = 0;
    suspicion = 0;
    deadline = config.heartbeat_timeout;
    failovers_n = 0;
    handovers_n = 0;
    last_promote = 0.;
    m_failovers = Obs.Metrics.counter ~labels "replica_failovers_total";
    m_promote =
      Obs.Metrics.histogram ~labels "replica_time_to_promote_seconds";
    m_shipped = Obs.Metrics.counter ~labels "replica_frames_shipped_total";
    m_rejected = Obs.Metrics.counter ~labels "replica_frames_rejected_total";
    m_dups = Obs.Metrics.counter ~labels "replica_frames_duplicate_total";
    m_retransmits = Obs.Metrics.counter ~labels "replica_retransmits_total";
    m_handovers = Obs.Metrics.counter ~labels "replica_handovers_total";
    m_lease_grants = Obs.Metrics.counter ~labels "replica_lease_grants_total";
    m_partitions = Obs.Metrics.counter ~labels "replica_partitions_total" }

let all_followers g =
  match g.zero with
  | Some z -> z :: Array.to_list g.followers
  | None -> Array.to_list g.followers

let live_followers_list g =
  all_followers g |> List.filter (fun f -> f.alive && f.id <> g.primary_id)

let find_follower g id =
  if id = 0 then g.zero
  else if id < 1 || id > Array.length g.followers then None
  else Some g.followers.(id - 1)

(* ---------- Follower ingest ---------- *)

let follower_apply f ~shock d =
  if shock then ignore (C.absorb_shock f.ctrl d) else ignore (C.apply f.ctrl d)

let advance_contiguous f =
  let progressed = ref false in
  let rec go () =
    match Hashtbl.find_opt f.pending (f.acked + 1) with
    | Some (shock, d) ->
        Hashtbl.remove f.pending (f.acked + 1);
        follower_apply f ~shock d;
        f.acked <- f.acked + 1;
        progressed := true;
        go ()
    | None -> ()
  in
  go ();
  if !progressed then f.last_progress <- Obs.Clock.now ()

let adopt_term f term =
  if term > f.fterm then begin
    f.fterm <- term;
    (* Buffered records from an older term may straddle the promoted
       primary's durable prefix; drop them and let the gap retransmit
       re-ship the authoritative versions. *)
    Hashtbl.reset f.pending
  end

(* The record is decoded inside the frame it arrived in. *)
let ingest g f ~shock ~term frame ~pos =
  if term < f.fterm then Obs.Metrics.inc g.m_rejected
  else begin
    adopt_term f term;
    match
      Wal.record_of_substring frame ~pos ~len:(String.length frame - pos)
    with
    | Error _ ->
        (* CRC mismatch / truncated frame: drop it, the gap heals via
           retransmit at the next heartbeat. *)
        Obs.Metrics.inc g.m_rejected
    | Ok (seq, d) ->
        if seq <= f.acked || Hashtbl.mem f.pending seq then
          Obs.Metrics.inc g.m_dups
        else begin
          Hashtbl.replace f.pending seq (shock, d);
          advance_contiguous f
        end
  end

let follower_recv g f frame =
  match Frame.record_at frame with
  | Some (shock, term, pos) -> ingest g f ~shock ~term frame ~pos
  | None -> (
      match Frame.of_string frame with
      | Error _ -> Obs.Metrics.inc g.m_rejected
      | Ok (Frame.Data _ | Frame.Shock _) -> () (* taken by [record_at] *)
      | Ok (Frame.Heartbeat { term; last_seq; tick = _ }) ->
          if term >= f.fterm then begin
            adopt_term f term;
            f.hb_last_seq <- max f.hb_last_seq last_seq
          end
          else Obs.Metrics.inc g.m_rejected
      | Ok (Frame.Lease { term; last_seq; successor = _ }) ->
          (* The lease is the term-fence for a planned handover:
             adopting its term makes every follower reject stale
             frames from the demoted primary, exactly like a crash
             promotion's first heartbeat. *)
          if term >= f.fterm then begin
            adopt_term f term;
            f.hb_last_seq <- max f.hb_last_seq last_seq
          end
          else Obs.Metrics.inc g.m_rejected)

let drain_follower g f = List.iter (follower_recv g f) (Transport.drain f.tr)

(* ---------- Heartbeats, retransmit, failure detection ---------- *)

let record_frame g ~shock record =
  Frame.to_string
    (if shock then Frame.Shock { term = g.term; record }
     else Frame.Data { term = g.term; record })

let retransmit g f =
  for seq = f.acked + 1 to g.history_hi do
    if not (Hashtbl.mem f.pending seq) then
      match Hashtbl.find_opt g.history seq with
      | Some (shock, record) ->
          Obs.Metrics.inc g.m_retransmits;
          f.tr.Transport.send (record_frame g ~shock record)
      | None -> ()
  done

let update_lag_gauges g =
  List.iter
    (fun f ->
      let lag = g.next_seq - 1 - f.acked in
      Obs.Metrics.set f.m_lag_records (float lag);
      Obs.Metrics.set f.m_lag_seconds
        (if lag = 0 then 0. else Obs.Clock.now () -. f.last_progress))
    (live_followers_list g)

let heartbeat_step g =
  let last_seq = g.next_seq - 1 in
  let live = live_followers_list g in
  let hb =
    Frame.to_string
      (Frame.Heartbeat { term = g.term; last_seq; tick = g.clock })
  in
  List.iter (fun f -> f.tr.Transport.send hb) live;
  List.iter (fun f -> drain_follower g f) live;
  List.iter (fun f -> if f.acked < last_seq then retransmit g f) live;
  update_lag_gauges g;
  g.suspicion <- 0;
  g.deadline <- g.clock + g.cfg.heartbeat_timeout

(* A deposed primary must never rejoin the follower set: its follower
   record's [acked] went stale while it served as primary (the shared
   controller advanced without it), so resurrecting it would replay
   already-applied records. Mark the record dead; only
   [restart_follower]'s scratch rebuild brings the replica back. *)
let retire_primary_record g =
  match find_follower g g.primary_id with
  | Some f ->
      f.alive <- false;
      f.tr.Transport.clear ();
      Hashtbl.reset f.pending
  | None -> ()

let fail_over g =
  let t0 = Obs.Clock.now () in
  retire_primary_record g;
  g.primary_alive <- false;
  let candidates = live_followers_list g in
  (* First drain the in-flight tail every candidate already holds. *)
  List.iter (fun f -> drain_follower g f) candidates;
  match candidates with
  | [] -> false
  | first :: rest ->
      (* Deterministic winner: most caught-up, ties to the lowest id. *)
      let winner =
        List.fold_left
          (fun best f -> if f.acked > best.acked then f else best)
          first rest
      in
      (* Finish the tail from the durable shipped log: everything the
         old primary logged that the winner has not applied yet. *)
      for seq = winner.acked + 1 to g.history_hi do
        (match Hashtbl.find_opt winner.pending seq with
        | Some (shock, d) -> follower_apply winner ~shock d
        | None -> (
            match Hashtbl.find_opt g.history seq with
            | Some (shock, record) -> (
                match Wal.record_of_string record with
                | Ok (_, d) -> follower_apply winner ~shock d
                | Error _ -> ())
            | None -> ()));
        winner.acked <- seq
      done;
      Hashtbl.reset winner.pending;
      winner.last_progress <- Obs.Clock.now ();
      Obs.Metrics.set winner.m_lag_records 0.;
      Obs.Metrics.set winner.m_lag_seconds 0.;
      g.term <- g.term + 1;
      g.primary <- winner.ctrl;
      g.primary_id <- winner.id;
      g.primary_alive <- true;
      g.suspicion <- 0;
      g.deadline <- g.clock + g.cfg.heartbeat_timeout;
      g.failovers_n <- g.failovers_n + 1;
      let dt = Obs.Clock.elapsed_since t0 in
      g.last_promote <- dt;
      Obs.Metrics.inc g.m_failovers;
      Obs.Hist.observe g.m_promote dt;
      (* Announce the new term at once so the remaining followers
         discard stale buffered state and re-sync from history. *)
      heartbeat_step g;
      true

let tick g =
  g.clock <- g.clock + 1;
  let due = g.clock mod g.cfg.heartbeat_every = 0 in
  let partitioned = g.clock < g.partitioned_until in
  if g.primary_alive && due && not partitioned then heartbeat_step g
  else if g.clock >= g.deadline then
    if g.suspicion >= g.cfg.max_backoffs then ignore (fail_over g)
    else begin
      (* Capped exponential backoff before declaring the primary dead:
         a short heartbeat gap (slow primary, brief partition) rides
         out; a persistent one escalates to promotion. *)
      g.suspicion <- g.suspicion + 1;
      g.deadline <-
        g.clock
        + min g.cfg.backoff_cap (g.cfg.heartbeat_timeout * (1 lsl g.suspicion))
    end

(* ---------- Primary operations ---------- *)

let log_record ?flush g d =
  match g.wal with
  | Some w ->
      let seq, record = Wal.append_tee ?flush w d in
      g.next_seq <- seq + 1;
      (seq, record)
  | None ->
      let seq = g.next_seq in
      g.next_seq <- seq + 1;
      (seq, Wal.record_to_string ~seq d)

let ship g ~shock seq record =
  Hashtbl.replace g.history seq (shock, record);
  if seq > g.history_hi then g.history_hi <- seq;
  Obs.Metrics.inc g.m_shipped;
  (* One frame string for every follower: the links only read it. *)
  let frame = record_frame g ~shock record in
  List.iter (fun f -> f.tr.Transport.send frame) (live_followers_list g)

let apply ?flush g d =
  if not g.primary_alive then
    invalid_arg "Replica.Group.apply: primary is down (fail_over first)";
  let applied = C.apply g.primary d in
  let seq, record = log_record ?flush g d in
  ship g ~shock:false seq record;
  tick g;
  applied

let flush_wal g = match g.wal with Some w -> Wal.flush_writer w | None -> ()

(* The batched apply keeps the per-record state machine — apply, log,
   ship, tick, in that order for every delta, so heartbeats, failure
   detection and failover fire at the same logical ticks as the
   one-at-a-time path — and amortizes only the WAL's OS flush over the
   batch. Bytes on disk are identical. A delta that raises ends the
   batch, and the flush still runs: its prefix is already shipped, so
   it must be on disk too. *)
let apply_batch g deltas =
  Fun.protect
    ~finally:(fun () -> flush_wal g)
    (fun () -> List.map (fun d -> apply ~flush:false g d) deltas)

let absorb_shock g d =
  if not g.primary_alive then
    invalid_arg "Replica.Group.absorb_shock: primary is down (fail_over first)";
  let recovery = C.absorb_shock g.primary d in
  let seq, record = log_record g d in
  ship g ~shock:true seq record;
  tick g;
  recovery

(* ---------- Planned handover (lease) ---------- *)

(* The demoted primary rejoins the follower set as a fully caught-up
   follower: its controller applied every record while it served, so
   its acked position is exactly [last_seq] at the new term. Replica 0
   gets its follower record (link, gauges) built on first demotion. *)
let demote_primary_record g ~new_term ~last_seq =
  let f =
    match find_follower g g.primary_id with
    | Some f -> f
    | None ->
        let f =
          mk_follower ~labels:g.labels ~mk_link:g.mk_link ~ctrl:g.primary
            g.primary_id
        in
        g.zero <- Some f;
        f
  in
  f.ctrl <- g.primary;
  f.acked <- last_seq;
  f.fterm <- new_term;
  Hashtbl.reset f.pending;
  f.hb_last_seq <- last_seq;
  f.tr.Transport.clear ();
  f.alive <- true;
  f.last_progress <- Obs.Clock.now ();
  Obs.Metrics.set f.m_lag_records 0.;
  Obs.Metrics.set f.m_lag_seconds 0.

let hand_over ?to_ g =
  if not g.primary_alive then Error "primary is down: crash promotion only"
  else begin
    Obs.Metrics.inc g.m_lease_grants;
    let last_seq = g.next_seq - 1 in
    let successor =
      match to_ with
      | Some id -> (
          match find_follower g id with
          | Some f when f.alive && f.id <> g.primary_id -> Ok f
          | _ ->
              Error
                (Printf.sprintf
                   "designated successor %d is not a live follower" id))
      | None -> (
          match live_followers_list g with
          | [] -> Error "no live follower to hand over to"
          | first :: rest ->
              Ok
                (List.fold_left
                   (fun best f -> if f.acked > best.acked then f else best)
                   first rest))
    in
    match successor with
    | Error _ as e -> e
    | Ok s ->
        (* Drain the tail to the successor under the lease; bounded
           rounds so a wedged link revokes the lease (primary keeps
           serving) instead of stalling the control plane. *)
        let rounds = ref 0 in
        drain_follower g s;
        while s.acked < last_seq && !rounds < 64 do
          incr rounds;
          retransmit g s;
          drain_follower g s
        done;
        if s.acked < last_seq then
          Error
            (Printf.sprintf
               "lease revoked: successor %d stuck at %d/%d" s.id s.acked
               last_seq)
        else begin
          let new_term = g.term + 1 in
          let lease =
            Frame.to_string
              (Frame.Lease { term = new_term; last_seq; successor = s.id })
          in
          (* Fence every live follower on the new term before the flip
             so nothing accepts a stale frame from the old leader. *)
          let live = live_followers_list g in
          List.iter (fun f -> f.tr.Transport.send lease) live;
          List.iter (fun f -> drain_follower g f) live;
          demote_primary_record g ~new_term ~last_seq;
          g.term <- new_term;
          g.primary <- s.ctrl;
          g.primary_id <- s.id;
          g.primary_alive <- true;
          g.suspicion <- 0;
          g.deadline <- g.clock + g.cfg.heartbeat_timeout;
          g.handovers_n <- g.handovers_n + 1;
          Obs.Metrics.inc g.m_handovers;
          heartbeat_step g;
          Ok s.id
        end
  end

(* ---------- Chaos operations ---------- *)

let kill_primary g =
  g.primary_alive <- false;
  retire_primary_record g

let crash_follower g id =
  match find_follower g id with
  | Some f when f.alive && f.id <> g.primary_id ->
      f.alive <- false;
      f.tr.Transport.clear ();
      Hashtbl.reset f.pending;
      true
  | _ -> false

let restart_follower g id =
  match find_follower g id with
  | Some f when not f.alive ->
      f.ctrl <-
        C.create ~policy:g.policy ~labels:(replica_labels g.labels f.id) g.inst;
      f.acked <- 0;
      f.fterm <- g.term;
      f.hb_last_seq <- 0;
      Hashtbl.reset f.pending;
      f.tr.Transport.clear ();
      (* Scratch rebuild: replay the durable shipped log from the
         beginning — the follower-side equivalent of a cold WAL
         recovery. *)
      for seq = 1 to g.history_hi do
        match Hashtbl.find_opt g.history seq with
        | Some (shock, record) -> (
            match Wal.record_of_string record with
            | Ok (_, d) ->
                follower_apply f ~shock d;
                f.acked <- seq
            | Error _ -> ())
        | None -> ()
      done;
      f.last_progress <- Obs.Clock.now ();
      f.alive <- true;
      true
  | _ -> false

let partition_heartbeats g ticks =
  if ticks > 0 then Obs.Metrics.inc g.m_partitions;
  g.partitioned_until <- g.clock + max 0 ticks

let inject g ~follower fault =
  match find_follower g follower with
  | Some f when f.alive && f.id <> g.primary_id ->
      f.tr.Transport.arm fault;
      true
  | _ -> false

let quiesce ?(max_rounds = 1024) g =
  g.partitioned_until <- 0;
  if not g.primary_alive then ignore (fail_over g);
  let caught_up () =
    List.for_all
      (fun f -> f.acked = g.next_seq - 1)
      (live_followers_list g)
  in
  let rounds = ref 0 in
  while not (caught_up ()) && !rounds < max_rounds do
    incr rounds;
    g.clock <- g.clock + 1;
    heartbeat_step g
  done;
  caught_up ()

let close g = List.iter (fun f -> f.tr.Transport.close ()) (all_followers g)

(* ---------- Accessors ---------- *)

let primary g = g.primary
let primary_id g = g.primary_id
let primary_alive g = g.primary_alive
let term g = g.term
let clock g = g.clock
let last_seq g = g.next_seq - 1
let replicas g = Array.length g.followers
let failovers g = g.failovers_n
let handovers g = g.handovers_n
let last_promote_seconds g = g.last_promote

let follower_ids g = all_followers g |> List.map (fun f -> f.id)

let live_followers g = live_followers_list g |> List.map (fun f -> f.id)

let follower_ctrl g id =
  match find_follower g id with
  | Some f when f.alive -> Some f.ctrl
  | _ -> None

let acked g id =
  match find_follower g id with Some f -> Some f.acked | None -> None

let lag g id =
  match find_follower g id with
  | Some f -> Some (g.next_seq - 1 - f.acked)
  | None -> None

let link g id =
  match find_follower g id with Some f -> Some f.tr | None -> None

(* A dead primary with no live follower would spin the failure
   detector forever: resurrect the crashed followers (scratch rebuild
   from the shipped log) so promotion has a candidate, then tick until
   the detector fires. *)
let ensure_promoted g =
  if live_followers g = [] then
    List.iter (fun id -> ignore (restart_follower g id)) (follower_ids g);
  let guard = ref 0 in
  while (not g.primary_alive) && !guard < 100_000 do
    incr guard;
    tick g
  done;
  if not g.primary_alive then ignore (fail_over g)

let node g =
  { Engine.Node.apply =
      (fun ?flush d ->
        ensure_promoted g;
        apply ?flush g d);
    apply_batch = (fun ds -> ensure_promoted g; ignore (apply_batch g ds));
    flush = (fun () -> flush_wal g);
    view = (fun () -> C.view g.primary);
    controllers = (fun () -> [ g.primary ]);
    utility = (fun () -> C.utility g.primary);
    replan = (fun () -> C.replan g.primary);
    report = (fun () -> C.report g.primary);
    close = (fun () -> close g) }
