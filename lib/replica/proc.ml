module C = Engine.Controller
module Wal = Engine.Wal
module TS = Transport_socket

(* ---------- State digest ---------- *)

let crc s = Prelude.Crc32.to_hex (Prelude.Crc32.digest s)

let digest ctrl =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "%h" (C.utility ctrl));
  let total, used, slots = Engine.Planner.float_state (C.planner ctrl) in
  Buffer.add_string buf (Printf.sprintf "|%h|" total);
  Array.iter (fun f -> Buffer.add_string buf (Printf.sprintf "%h," f)) used;
  Array.iter
    (fun (du, capped, cap_used) ->
      Buffer.add_string buf (Printf.sprintf "|%h;%h" du capped);
      Array.iter
        (fun f -> Buffer.add_string buf (Printf.sprintf ";%h" f))
        cap_used)
    slots;
  let j, l, cc, br, r, e = Engine.Counters.fields (C.counters ctrl) in
  let fa, q, rec_, fb = Engine.Counters.resilience_fields (C.counters ctrl) in
  Buffer.add_string buf
    (Printf.sprintf "|%d,%d,%d,%d,%d,%d|%d,%d,%d,%d|%d,%d" j l cc br r e fa
       q rec_ fb (C.deltas_applied ctrl) (C.since_replan ctrl));
  Printf.sprintf "%s-%s"
    (crc (Mmd.Io.assignment_to_string (C.plan ctrl)))
    (crc (Buffer.contents buf))

(* ---------- Follower process ---------- *)

type served = { fterm : int; acked : int; state_digest : string }
type serve_outcome = Quit of served | Orphaned

let serve ?(idle_timeout_s = 30.) ?(policy = C.Every 64) ~endpoint inst =
  let lfd = TS.listen endpoint in
  let ctrl = C.create ~policy inst in
  let fterm = ref 0 in
  let acked = ref 0 in
  let pending : (int, bool * Engine.Delta.t) Hashtbl.t = Hashtbl.create 64 in
  let apply_one ~shock d =
    if shock then ignore (C.absorb_shock ctrl d) else ignore (C.apply ctrl d)
  in
  let advance () =
    let rec go () =
      match Hashtbl.find_opt pending (!acked + 1) with
      | Some (shock, d) ->
          Hashtbl.remove pending (!acked + 1);
          apply_one ~shock d;
          incr acked;
          go ()
      | None -> ()
    in
    go ()
  in
  let adopt term =
    if term > !fterm then begin
      fterm := term;
      Hashtbl.reset pending
    end
  in
  let ingest ~shock ~term frame ~pos =
    if term >= !fterm then begin
      adopt term;
      match
        Wal.record_of_substring frame ~pos ~len:(String.length frame - pos)
      with
      | Error _ -> () (* CRC reject; the gap heals by retransmit *)
      | Ok (seq, d) ->
          if seq > !acked && not (Hashtbl.mem pending seq) then begin
            Hashtbl.replace pending seq (shock, d);
            advance ()
          end
    end
  in
  let outcome = ref Orphaned in
  let serving = ref true in
  let buf = Bytes.create 65536 in
  while !serving do
    match TS.accept ~deadline_s:idle_timeout_s lfd with
    | None -> serving := false
    | Some fd ->
        let dec = Frame_codec.Decoder.create () in
        let connected = ref true in
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
              outcome :=
                Quit
                  { fterm = !fterm;
                    acked = !acked;
                    state_digest = digest ctrl };
              connected := false;
              serving := false
          | TS.Frame "G" -> (
              try TS.send_frame fd ("X " ^ digest ctrl)
              with Unix.Unix_error _ -> connected := false)
          | TS.Frame payload -> (
              match Group.Frame.record_at payload with
              | Some (shock, term, pos) -> ingest ~shock ~term payload ~pos
              | None -> (
                  match Group.Frame.of_string payload with
                  | Ok (Group.Frame.Data _ | Group.Frame.Shock _) -> ()
                  | Ok (Group.Frame.Heartbeat { term; last_seq = _; tick = _ })
                    ->
                      if term >= !fterm then begin
                        adopt term;
                        try TS.send_frame fd (Printf.sprintf "A %d" !acked)
                        with Unix.Unix_error _ -> connected := false
                      end
                  | Ok (Group.Frame.Lease { term; last_seq = _; successor = _ })
                    ->
                      adopt term
                  | Error _ -> () (* not a frame we know; drop it *)))
        done;
        TS.close_quiet fd
  done;
  TS.close_quiet lfd;
  (match endpoint with
  | TS.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | TS.Tcp _ -> ());
  !outcome

(* ---------- Primary side ---------- *)

type peer = {
  pfd : Unix.file_descr;
  pdec : Frame_codec.Decoder.t;
  pbuf : Bytes.t;  (** read scratch for [pfd] *)
  mutable packed : int;
}

let connect_peers endpoints =
  List.map
    (fun ep ->
      { pfd = TS.connect ep;
        pdec = Frame_codec.Decoder.create ();
        pbuf = Bytes.create 65536;
        packed = 0 })
    endpoints

let peer_acked p = p.packed

let send_quiet p payload =
  try TS.send_frame p.pfd payload with Unix.Unix_error _ -> ()

let ship peers ~term ~shock record =
  let payload =
    Group.Frame.to_string
      (if shock then Group.Frame.Shock { term; record }
       else Group.Frame.Data { term; record })
  in
  List.iter (fun p -> send_quiet p payload) peers

(* Acks ride back on heartbeats; drain whatever has arrived. *)
let pump_acks ?(deadline_s = 0.25) p =
  let continue = ref true in
  while !continue do
    match TS.recv_frame ~deadline_s ~buf:p.pbuf p.pfd p.pdec with
    | TS.Frame payload -> (
        match String.split_on_char ' ' payload with
        | [ "A"; n ] -> (
            match int_of_string_opt n with
            | Some n -> p.packed <- max p.packed n
            | None -> ())
        | _ -> ())
    | TS.Timeout | TS.Closed -> continue := false
  done

let heartbeat peers ~term ~last_seq ~tick =
  let hb =
    Group.Frame.to_string (Group.Frame.Heartbeat { term; last_seq; tick })
  in
  List.iter
    (fun p ->
      send_quiet p hb;
      pump_acks p)
    peers

let catch_up ?(max_rounds = 64) peers ~term ~history ~last_seq =
  let rounds = ref 0 in
  let behind () = List.filter (fun p -> p.packed < last_seq) peers in
  heartbeat peers ~term ~last_seq ~tick:0;
  while behind () <> [] && !rounds < max_rounds do
    incr rounds;
    List.iter
      (fun p ->
        for seq = p.packed + 1 to last_seq do
          match Hashtbl.find_opt history seq with
          | Some (shock, record) -> ship [ p ] ~term ~shock record
          | None -> ()
        done)
      (behind ());
    heartbeat peers ~term ~last_seq ~tick:!rounds
  done;
  behind () = []

let collect_digest ?(deadline_s = 5.0) p =
  send_quiet p "G";
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0. then None
    else
      match TS.recv_frame ~deadline_s:remaining ~buf:p.pbuf p.pfd p.pdec with
      | TS.Frame payload -> (
          match String.split_on_char ' ' payload with
          | [ "X"; d ] -> Some d
          | _ -> go () (* a late ack; keep reading *))
      | TS.Timeout | TS.Closed -> None
  in
  go ()

let quit_peers peers =
  List.iter
    (fun p ->
      send_quiet p "Q";
      TS.close_quiet p.pfd)
    peers

let write_torn_frame peers ~term ~record =
  let enc =
    Frame_codec.encode
      (Group.Frame.to_string (Group.Frame.Data { term; record }))
  in
  let half = String.length enc / 2 in
  List.iter
    (fun p ->
      try
        let rec write_all pos len =
          if len > 0 then
            match Unix.write_substring p.pfd enc pos len with
            | n -> write_all (pos + n) (len - n)
            | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                write_all pos len
        in
        write_all 0 half
      with Unix.Unix_error _ -> ())
    peers

(* ---------- Recovery coordinator ---------- *)

type recovery_report = {
  survivors : int;
  divergent : int;
  wal_records : int;
  reference_digest : string;
}

let recover_and_verify ?(policy = C.Every 64) ~endpoints ~wal_path ~term inst
    =
  match Wal.recover_file wal_path with
  | Error msg -> Error ("WAL recovery failed: " ^ msg)
  | Ok r ->
      let records = r.Wal.records in
      let last_seq = List.fold_left (fun hi (s, _) -> max hi s) 0 records in
      (* Re-encode the durable records byte-identically: a WAL record
         is a pure function of (seq, delta). *)
      let history = Hashtbl.create 1024 in
      List.iter
        (fun (seq, d) ->
          Hashtbl.replace history seq (false, Wal.record_to_string ~seq d))
        records;
      let peers = connect_peers endpoints in
      let converged = catch_up peers ~term ~history ~last_seq in
      (* The reference: a fresh controller fed the same durable log. *)
      let reference = C.create ~policy inst in
      List.iter (fun (_, d) -> ignore (C.apply reference d)) records;
      let reference_digest = digest reference in
      let digests = List.map collect_digest peers in
      quit_peers peers;
      if not converged then
        Error
          (Printf.sprintf "a survivor never caught up to seq %d" last_seq)
      else
        let divergent =
          List.fold_left
            (fun n d ->
              match d with
              | Some d when d = reference_digest -> n
              | _ -> n + 1)
            0 digests
        in
        Ok
          { survivors = List.length peers;
            divergent;
            wal_records = List.length records;
            reference_digest }
