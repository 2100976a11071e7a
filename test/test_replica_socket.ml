(* Socket-backed replication: the frame codec survives adversarial
   chunking and torn final frames, the loopback socket link passes the
   same functorized fault matrix as the in-process queue, and real
   multi-process replica sets (spawned mmd_engine processes over Unix
   sockets) converge bit-identically through SIGKILLed primaries —
   including kills that leave a torn frame on every wire. *)

open Helpers
module FC = Replica.Frame_codec
module T = Replica.Transport
module TS = Replica.Transport_socket

(* ---------- Frame codec ---------- *)

let test_codec_roundtrip () =
  let payloads =
    [ ""; "x"; "hello world"; String.make 1000 '\255';
      String.init 256 Char.chr ]
  in
  let dec = FC.Decoder.create () in
  List.iter
    (fun p ->
      check_int "encoded length"
        (FC.header_length + String.length p)
        (String.length (FC.encode p));
      FC.Decoder.feed dec (FC.encode p);
      (match FC.Decoder.next dec with
      | Ok (Some p') -> check_bool "payload bit-exact" true (p = p')
      | Ok None -> Alcotest.fail "complete frame did not decode"
      | Error e -> Alcotest.fail e);
      match FC.Decoder.next dec with
      | Ok None -> ()
      | _ -> Alcotest.fail "spurious frame")
    payloads;
  check_int "nothing buffered" 0 (FC.Decoder.buffered dec)

let gen_payloads =
  QCheck2.Gen.(
    pair (int_range 1 10_000)
      (list_size (int_range 0 8) (string_size ~gen:char (int_range 0 80))))

(* Encode a batch, re-feed it in arbitrary 1..7-byte chunks: the
   decoder must yield exactly the original payloads, bit-exact, with
   nothing left over. *)
let chunking_prop (seed, payloads) =
  let rng = Prelude.Rng.create seed in
  let enc = String.concat "" (List.map FC.encode payloads) in
  let dec = FC.Decoder.create () in
  let out = ref [] in
  let ok = ref true in
  let rec drain () =
    match FC.Decoder.next dec with
    | Ok (Some p) ->
        out := p :: !out;
        drain ()
    | Ok None -> ()
    | Error _ -> ok := false
  in
  let pos = ref 0 in
  let len = String.length enc in
  while !ok && !pos < len do
    let n = 1 + Prelude.Rng.int rng (min 7 (len - !pos)) in
    FC.Decoder.feed dec ~pos:!pos ~len:n enc;
    pos := !pos + n;
    drain ()
  done;
  !ok && List.rev !out = payloads && FC.Decoder.buffered dec = 0

let qcheck_chunking =
  qtest ~count:300 "codec: adversarial chunking decodes bit-exactly"
    gen_payloads chunking_prop

(* A truncated final frame (peer died mid-write) self-invalidates: the
   complete prefix decodes, the torn frame never completes, and reset
   on disconnect leaves a clean decoder. *)
let truncation_prop (seed, payloads, last) =
  let rng = Prelude.Rng.create seed in
  let enc_last = FC.encode last in
  let cut = 1 + Prelude.Rng.int rng (String.length enc_last - 1) in
  let stream =
    String.concat "" (List.map FC.encode payloads)
    ^ String.sub enc_last 0 cut
  in
  let dec = FC.Decoder.create () in
  FC.Decoder.feed dec stream;
  let out = ref [] in
  let ok = ref true in
  let rec drain () =
    match FC.Decoder.next dec with
    | Ok (Some p) ->
        out := p :: !out;
        drain ()
    | Ok None -> ()
    | Error _ -> ok := false
  in
  drain ();
  !ok
  && List.rev !out = payloads
  && FC.Decoder.buffered dec > 0
  &&
  (FC.Decoder.reset dec;
   FC.Decoder.buffered dec = 0)

let qcheck_truncation =
  qtest ~count:300 "codec: a torn final frame self-invalidates"
    QCheck2.Gen.(
      triple (int_range 1 10_000)
        (list_size (int_range 0 4) (string_size ~gen:char (int_range 0 40)))
        (string_size ~gen:char (int_range 0 40)))
    truncation_prop

let test_codec_stream_errors () =
  (* Bad magic after a good frame: the stream has lost framing. *)
  let enc = FC.encode "abc" ^ FC.encode "def" in
  let b = Bytes.of_string enc in
  Bytes.set b (FC.encoded_length "abc") 'X';
  let dec = FC.Decoder.create () in
  FC.Decoder.feed dec (Bytes.to_string b);
  (match FC.Decoder.next dec with
  | Ok (Some p) -> check_bool "first frame survives" true (p = "abc")
  | _ -> Alcotest.fail "good first frame rejected");
  (match FC.Decoder.next dec with
  | Error _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (* A flipped payload byte: CRC must reject. *)
  let b = Bytes.of_string (FC.encode "payload") in
  let i = FC.header_length + 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  let dec = FC.Decoder.create () in
  FC.Decoder.feed dec (Bytes.to_string b);
  (match FC.Decoder.next dec with
  | Error _ -> ()
  | _ -> Alcotest.fail "CRC mismatch accepted");
  (* A wrong version byte is not this decoder's stream. *)
  let b = Bytes.of_string (FC.encode "v") in
  Bytes.set b 2 (Char.chr (FC.version + 1));
  let dec = FC.Decoder.create () in
  FC.Decoder.feed dec (Bytes.to_string b);
  match FC.Decoder.next dec with
  | Error _ -> ()
  | _ -> Alcotest.fail "unknown version accepted"

(* ---------- Loopback socket link ---------- *)

let test_loopback_basic () =
  let l = TS.loopback () in
  Fun.protect
    ~finally:(fun () -> l.T.close ())
    (fun () ->
      l.T.send "hello";
      l.T.send "world";
      check_bool "frames arrive in order over a real socket" true
        (T.drain l = [ "hello"; "world" ]);
      l.T.arm T.Drop;
      l.T.send "lost";
      l.T.send "kept";
      check_bool "drop" true (T.drain l = [ "kept" ]);
      l.T.arm T.Duplicate;
      l.T.send "twice";
      check_bool "duplicate" true (T.drain l = [ "twice"; "twice" ]);
      l.T.arm T.Reorder;
      l.T.send "first";
      l.T.send "second";
      check_bool "reorder swaps" true (T.drain l = [ "second"; "first" ]))

let test_loopback_truncate_and_reset () =
  let l = TS.loopback () in
  Fun.protect
    ~finally:(fun () -> l.T.close ())
    (fun () ->
      let r0 = TS.reconnects_total () in
      (* Truncate: half the encoded frame hits the wire, the
         connection tears, and the codec never yields the torn frame;
         the link reconnects underneath and later frames survive. *)
      l.T.arm T.Truncate;
      l.T.send "torn-frame-payload";
      l.T.send "healthy";
      check_bool "torn frame dies with the connection" true
        (T.drain l = [ "healthy" ]);
      (* Reset: abortive close, everything in flight is lost. *)
      l.T.arm T.Reset;
      l.T.send "gone";
      check_bool "reset loses the frame in flight" true (T.drain l = []);
      l.T.send "alive";
      check_bool "link reconnected after reset" true (T.drain l = [ "alive" ]);
      check_bool "reconnects counted" true (TS.reconnects_total () > r0);
      let s = l.T.stats () in
      check_int "truncations" 1 s.T.truncations;
      check_int "resets" 1 s.T.resets)

let unix_sock_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mmd-%s-%d.sock" tag (Unix.getpid ()))

let test_loopback_unix_domain () =
  let path = unix_sock_path "loop" in
  let l = TS.loopback ~endpoint:(TS.Unix_sock path) () in
  Fun.protect
    ~finally:(fun () -> l.T.close ())
    (fun () ->
      l.T.send "over";
      l.T.send "unix";
      check_bool "unix-domain loopback delivers" true
        (T.drain l = [ "over"; "unix" ]));
  check_bool "socket path unlinked on close" true (not (Sys.file_exists path))

let with_link l f = Fun.protect ~finally:(fun () -> l.T.close ()) (fun () -> f l)

(* About 4 MiB of 1 KiB frames, far past what the kernel buffers for
   one connection, sent with no recv in between: the next drain still
   yields every frame, intact and in order. *)
let burst_drains_in_order l =
  let n = 4096 in
  let frame i = Printf.sprintf "%06d" i ^ String.make 1018 (Char.chr (i land 0xff)) in
  for i = 0 to n - 1 do
    l.T.send (frame i)
  done;
  check_int "whole burst pending" n (l.T.pending ());
  let got = Array.of_list (T.drain l) in
  check_int "burst drains complete" n (Array.length got);
  let bad = ref 0 in
  Array.iteri (fun i f -> if f <> frame i then incr bad) got;
  check_int "burst drains intact and in order" 0 !bad;
  check_int "nothing left pending" 0 (l.T.pending ())

let test_loopback_burst_tcp () = with_link (TS.loopback ()) burst_drains_in_order

let test_loopback_burst_unix () =
  let path = unix_sock_path "burst" in
  with_link (TS.loopback ~endpoint:(TS.Unix_sock path) ()) burst_drains_in_order

let queued = List.init 64 (fun i -> Printf.sprintf "queued-%02d-%s" i (String.make 500 'q'))

(* Frames sent since the last drain, then a torn frame: each earlier
   frame reaches the reader whole before the connection tears, and
   only the torn frame is lost. *)
let test_loopback_truncate_after_queue () =
  with_link (TS.loopback ()) (fun l ->
      List.iter l.T.send queued;
      l.T.arm T.Truncate;
      l.T.send "torn-frame-payload";
      l.T.send "after";
      check_bool "queued frames intact, torn frame lost" true
        (T.drain l = queued @ [ "after" ]);
      check_int "one truncation" 1 (l.T.stats ()).T.truncations)

(* A reset loses every frame sent since the last drain; frames drained
   before it are not touched, and the next frame arrives. *)
let test_loopback_reset_after_queue () =
  with_link (TS.loopback ()) (fun l ->
      l.T.send "drained";
      check_bool "drained before the reset" true (T.drain l = [ "drained" ]);
      List.iter l.T.send queued;
      l.T.arm T.Reset;
      l.T.send "gone";
      check_bool "reset loses every frame since the last drain" true
        (T.drain l = []);
      check_int "nothing pending after the reset" 0 (l.T.pending ());
      l.T.send "next";
      check_bool "next frame arrives" true (T.drain l = [ "next" ]);
      check_int "one reset" 1 (l.T.stats ()).T.resets)

(* ---------- The functorized protocol matrix, socket backend ---------- *)

(* The identical suite the queue backend passes in Test_replica, now
   with every frame crossing a real socket. Lower qcheck counts: each
   case builds real fds. *)
module Socket_matrix = Test_replica.Protocol_matrix (struct
  let name = "socket"
  let mk_link _ = TS.loopback ()
  let count = 8
end)

(* ---------- Multi-process replica sets ---------- *)

(* dune runtest runs from _build/default/test; dune exec from the
   workspace root. *)
let engine_exe =
  List.find Sys.file_exists
    [ "../bin/mmd_engine.exe"; "_build/default/bin/mmd_engine.exe" ]

let run_engine args =
  let cmd = Filename.quote_command engine_exe args ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, String.concat "\n" (List.rev !lines))

let with_instance f =
  let path = Filename.temp_file "proc" ".mmd" in
  let inst =
    random_mmd ~seed:3 ~num_streams:20 ~num_users:12 ~m:2 ~mc:1 ~skew:1.0
  in
  Mmd.Io.write_file path inst;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_proc_clean_convergence () =
  with_instance (fun inst ->
      let status, out =
        run_engine
          [ inst; "--gen-deltas"; "150"; "--seed"; "5"; "--replica-supervise";
            "2"; "--heartbeat-every"; "4" ]
      in
      check_bool "clean exit" true (status = Unix.WEXITED 0);
      check_bool "primary reports zero divergence" true
        (contains out "divergent=0");
      (* Every follower is alive, so every heartbeat ends on its ack,
         never on the failure-detection deadline. *)
      check_bool "no heartbeat waited out its deadline" true
        (contains out "heartbeat_timeouts=0");
      check_bool "supervisor saw no failures" true
        (contains out "0 failure(s)"))

let test_proc_sigkill_primary () =
  with_instance (fun inst ->
      let status, out =
        run_engine
          [ inst; "--gen-deltas"; "150"; "--seed"; "5"; "--replica-supervise";
            "2"; "--heartbeat-every"; "4"; "--replica-kill-at"; "75" ]
      in
      check_bool "clean exit" true (status = Unix.WEXITED 0);
      check_bool "primary really died by signal" true
        (contains out "killed by signal");
      check_bool "recovery converged every survivor" true
        (contains out "divergent=0");
      check_bool "supervisor saw no failures" true
        (contains out "0 failure(s)"))

let sigkill_mid_frame ~batch () =
  with_instance (fun inst ->
      let status, out =
        run_engine
          [ inst; "--gen-deltas"; "150"; "--seed"; "5"; "--replica-supervise";
            "3"; "--heartbeat-every"; "4"; "--replica-kill-at"; "75";
            "--replica-kill-mid-frame"; "--batch"; string_of_int batch ]
      in
      check_bool "clean exit" true (status = Unix.WEXITED 0);
      check_bool "primary really died by signal" true
        (contains out "killed by signal");
      (* The torn record was WAL-durable before the half-frame hit the
         wire, so recovery re-ships it: 76 records, not 75. *)
      check_bool "torn record recovered from the WAL" true
        (contains out "wal_records=76");
      check_bool "every survivor converged past the torn frame" true
        (contains out "divergent=0");
      check_bool "supervisor saw no failures" true
        (contains out "0 failure(s)"))

let test_cli_hand_over () =
  with_instance (fun inst ->
      let status, out =
        run_engine
          [ inst; "--gen-deltas"; "150"; "--seed"; "5"; "--replicas"; "2";
            "--heartbeat-every"; "4"; "--hand-over-at"; "70";
            "--replica-transport"; "socket" ]
      in
      check_bool "clean exit" true (status = Unix.WEXITED 0);
      check_bool "hand-over lost nothing" true
        (contains out "lost 0 deltas");
      check_bool "hand-over counted" true (contains out "planned hand-overs: 1");
      check_bool "followers all converged" true
        (not (contains out "NOT converged")))

let suite =
  [ Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
    qcheck_chunking;
    qcheck_truncation;
    Alcotest.test_case "codec stream errors" `Quick test_codec_stream_errors;
    Alcotest.test_case "loopback basic" `Quick test_loopback_basic;
    Alcotest.test_case "loopback truncate + reset" `Quick
      test_loopback_truncate_and_reset;
    Alcotest.test_case "loopback over unix domain" `Quick
      test_loopback_unix_domain;
    Alcotest.test_case "loopback burst past socket buffers (tcp)" `Quick
      test_loopback_burst_tcp;
    Alcotest.test_case "loopback burst past socket buffers (unix)" `Quick
      test_loopback_burst_unix;
    Alcotest.test_case "loopback truncate after queued frames" `Quick
      test_loopback_truncate_after_queue;
    Alcotest.test_case "loopback reset after queued frames" `Quick
      test_loopback_reset_after_queue;
    Alcotest.test_case "multi-process: clean convergence" `Quick
      test_proc_clean_convergence;
    Alcotest.test_case "multi-process: SIGKILL primary" `Quick
      test_proc_sigkill_primary;
    Alcotest.test_case "multi-process: SIGKILL mid-frame" `Quick
      (sigkill_mid_frame ~batch:1);
    (* Batches stop at the kill boundary, so the same record is torn. *)
    Alcotest.test_case "multi-process: SIGKILL mid-frame, batch 16" `Quick
      (sigkill_mid_frame ~batch:16);
    Alcotest.test_case "cli: planned hand-over over sockets" `Quick
      test_cli_hand_over ]
  @ Socket_matrix.suite
