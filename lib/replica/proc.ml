module C = Engine.Controller
module Wal = Engine.Wal
module TS = Transport_socket

(* ---------- State digest ---------- *)

let surface ctrl =
  let buf = Buffer.create 512 in
  let total, used, slots = Engine.Planner.float_state (C.planner ctrl) in
  Printf.bprintf buf "%s|%h|%h|"
    (Mmd.Io.assignment_to_string (C.plan ctrl))
    (C.utility ctrl) total;
  Array.iter (Printf.bprintf buf "%h,") used;
  Array.iter
    (fun (du, capped, cap_used) ->
      Printf.bprintf buf "|%h;%h" du capped;
      Array.iter (Printf.bprintf buf ";%h") cap_used)
    slots;
  let j, l, cc, br, r, e = Engine.Counters.fields (C.counters ctrl) in
  let fa, q, rec_, fb = Engine.Counters.resilience_fields (C.counters ctrl) in
  Printf.bprintf buf "|%d,%d,%d,%d,%d,%d|%d,%d,%d,%d|%d,%d" j l cc br r e fa q
    rec_ fb (C.deltas_applied ctrl) (C.since_replan ctrl);
  Buffer.contents buf

let digest ctrl = Prelude.Crc32.to_hex (Prelude.Crc32.digest (surface ctrl))

(* ---------- Follower process ---------- *)

type serve_outcome = Quit of Group.Follower.t | Orphaned

(* A socket loop around [Group.Follower]: it adds only the ack of a
   heartbeat and the "G" / "Q" control payloads. *)
let serve ?(idle_timeout_s = 30.) ?(policy = C.Every 64) ~endpoint inst =
  let lfd = TS.listen endpoint in
  let f = Group.Follower.create (C.create ~policy inst) in
  let outcome = ref Orphaned in
  let serving = ref true in
  let buf = Bytes.create 65536 in
  while !serving do
    match TS.accept ~deadline_s:idle_timeout_s lfd with
    | None -> serving := false
    | Some fd ->
        let dec = Frame_codec.Decoder.create () in
        let connected = ref true in
        let reply payload =
          try TS.send_frame fd payload
          with Unix.Unix_error _ -> connected := false
        in
        while !connected do
          match TS.recv_frame ~deadline_s:idle_timeout_s ~buf fd dec with
          | TS.Timeout ->
              (* A live but silent primary past the idle timeout: treat
                 as orphaned rather than hang forever. *)
              connected := false;
              serving := false
          | TS.Closed ->
              (* Primary died (possibly mid-frame: the torn frame dies
                 with this decoder). Go back to accepting — a recovery
                 coordinator will take over. *)
              connected := false
          | TS.Frame "Q" ->
              outcome := Quit f;
              connected := false;
              serving := false
          | TS.Frame "G" -> reply ("X " ^ digest (Group.Follower.ctrl f))
          | TS.Frame payload -> (
              match Group.Follower.receive f payload with
              | Group.Follower.Heard ->
                  reply (Printf.sprintf "A %d" (Group.Follower.acked f))
              | _ -> ())
        done;
        TS.close_quiet fd
  done;
  TS.close_quiet lfd;
  (match endpoint with
  | TS.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | TS.Tcp _ -> ());
  !outcome

(* ---------- Primary process ---------- *)

type peer = {
  pfd : Unix.file_descr;
  pdec : Frame_codec.Decoder.t;
  pbuf : Bytes.t;  (** read scratch for [pfd] *)
  mutable packed : int;
  mutable hb_timeouts : int;  (** heartbeats that got no ack in time *)
}

(* Write errors are swallowed: a dead peer is the chaos being tested. *)
let send_quiet p payload =
  try TS.send_frame p.pfd payload with Unix.Unix_error _ -> ()

(* Read replies until [stop] takes one, every "A <acked>" raising
   [packed]; [Error] once the link has been quiet for [deadline_s] or
   is gone. *)
let rec read_replies ~stop ~deadline_s p =
  match TS.recv_frame ~deadline_s ~buf:p.pbuf p.pfd p.pdec with
  | TS.Frame payload -> (
      let words = String.split_on_char ' ' payload in
      (match words with
      | [ "A"; n ] ->
          Option.iter
            (fun n -> p.packed <- max p.packed n)
            (int_of_string_opt n)
      | _ -> ());
      match stop words with
      | Some r -> Ok r
      | None -> read_replies ~stop ~deadline_s p)
  | TS.Timeout -> Error `Timeout
  | TS.Closed -> Error `Closed

(* A live follower answers each heartbeat with exactly one ack, so the
   read stops there; the deadline only detects a dead or fenced one. *)
let heartbeat peers ~term ~last_seq ~tick =
  let hb =
    Group.Frame.to_string (Group.Frame.Heartbeat { term; last_seq; tick })
  in
  let ack = function "A" :: _ -> Some () | _ -> None in
  List.iter
    (fun p ->
      send_quiet p hb;
      match read_replies ~stop:ack ~deadline_s:0.25 p with
      | Error `Timeout -> p.hb_timeouts <- p.hb_timeouts + 1
      | Ok () | Error `Closed -> ())
    peers

(* Heartbeat/retransmit rounds until every peer acks the log's last
   record (true) or [max_rounds] rounds pass (false). *)
let catch_up ?(max_rounds = 64) peers ~term log =
  let last_seq = Group.Log.last_seq log in
  let rounds = ref 0 in
  let behind () = List.filter (fun p -> p.packed < last_seq) peers in
  heartbeat peers ~term ~last_seq ~tick:0;
  while behind () <> [] && !rounds < max_rounds do
    incr rounds;
    List.iter
      (fun p ->
        for seq = p.packed + 1 to last_seq do
          match Group.Log.find log seq with
          | Some (shock, record) ->
              send_quiet p (Group.Frame.record ~shock ~term record)
          | None -> ()
        done)
      (behind ());
    heartbeat peers ~term ~last_seq ~tick:!rounds
  done;
  behind () = []

type primary = {
  ctrl : C.t;
  log : Group.Log.t;
  peers : peer list;
  heartbeat_every : int;
}

let primary ?(policy = C.Every 64)
    ?(heartbeat_every = Group.default_config.Group.heartbeat_every) ?wal
    ~endpoints inst =
  { ctrl = C.create ~policy inst;
    log = Group.Log.create ?wal ();
    peers =
      List.map
        (fun ep ->
          { pfd = TS.connect ep;
            pdec = Frame_codec.Decoder.create ();
            pbuf = Bytes.create 65536;
            packed = 0;
            hb_timeouts = 0 })
        endpoints;
    heartbeat_every }

(* Every delta is applied the way the followers apply it, one
   [C.apply] each, because the digest covers counter fields. The batch
   is logged and flushed before its first byte ships, so the shipped
   stream is always a prefix of the WAL and recovery can re-ship the
   tail. The primary ships at term 0; recovery re-ships at a higher
   one. A heartbeat follows each record whose seq is a multiple of
   [heartbeat_every]. *)
let apply_batch p ds =
  let logged =
    List.map
      (fun d ->
        let applied = C.apply p.ctrl d in
        (applied, Group.Log.append ~flush:false p.log ~shock:false d))
      ds
  in
  Group.Log.flush p.log;
  List.map
    (fun (applied, (seq, record)) ->
      let frame = Group.Frame.record ~shock:false ~term:0 record in
      List.iter (fun peer -> send_quiet peer frame) p.peers;
      if seq mod p.heartbeat_every = 0 then
        heartbeat p.peers ~term:0 ~last_seq:seq ~tick:seq;
      applied)
    logged

let node p =
  { (Engine.Node.of_controller p.ctrl) with
    apply = (fun ?flush:_ d -> List.hd (apply_batch p [ d ]));
    apply_batch = (fun ds -> ignore (apply_batch p ds));
    flush = (fun () -> Group.Log.flush p.log) }

let tear p d =
  let _, record = Group.Log.append p.log ~shock:false d in
  let frame = Group.Frame.record ~shock:false ~term:0 record in
  List.iter
    (fun peer ->
      try TS.send_half_frame peer.pfd frame with Unix.Unix_error _ -> ())
    p.peers

type audit = {
  applied : int;
  followers : int;
  divergent : int;
  converged : bool;
  last_seq : int;
  digest : string;
  heartbeat_timeouts : int;
}

let finish ?(term = 0) p =
  let converged = catch_up p.peers ~term p.log in
  let reference = digest p.ctrl in
  let divergent =
    List.fold_left
      (fun n peer ->
        send_quiet peer "G";
        let digest_reply = function [ "X"; d ] -> Some d | _ -> None in
        match read_replies ~stop:digest_reply ~deadline_s:5.0 peer with
        | Ok d when d = reference -> n
        | _ -> n + 1)
      0 p.peers
  in
  List.iter
    (fun peer ->
      send_quiet peer "Q";
      TS.close_quiet peer.pfd)
    p.peers;
  { applied = C.deltas_applied p.ctrl;
    followers = List.length p.peers;
    divergent;
    converged;
    last_seq = Group.Log.last_seq p.log;
    digest = reference;
    heartbeat_timeouts =
      List.fold_left (fun n peer -> n + peer.hb_timeouts) 0 p.peers }

(* ---------- Recovery coordinator ---------- *)

(* The coordinator is a primary whose controller and log are rebuilt
   from the durable WAL. A WAL record is a pure function of (seq,
   delta), so re-encoding each one gives the logged bytes back. *)
let recover_and_verify ?policy ~endpoints ~wal_path ~term inst =
  match Wal.recover_file wal_path with
  | Error msg -> Error ("WAL recovery failed: " ^ msg)
  | Ok r ->
      let p = primary ?policy ~endpoints inst in
      List.iter
        (fun (seq, d) ->
          ignore (C.apply p.ctrl d);
          Group.Log.add p.log seq ~shock:false (Wal.record_to_string ~seq d))
        r.Wal.records;
      let a = finish ~term p in
      if a.converged then Ok a
      else
        Error
          (Printf.sprintf "a survivor never caught up to seq %d" a.last_seq)
