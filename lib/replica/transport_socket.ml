(* A torn peer must surface as an error code on write, not a fatal
   SIGPIPE — replication heals broken links, it doesn't die with
   them. *)
let () = try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ()

type endpoint = Tcp of string * int | Unix_sock of string

let endpoint_to_string = function
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  | Unix_sock path -> "unix:" ^ path

let endpoint_of_string s =
  if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix_sock (String.sub s 5 (String.length s - 5)))
  else
    match String.rindex_opt s ':' with
    | None -> Error (Printf.sprintf "bad endpoint %S (host:port or unix:path)" s)
    | Some i -> (
        let host = String.sub s 0 i in
        let port_tok = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port_tok with
        | Some port when host <> "" -> Ok (Tcp (host, port))
        | _ ->
            Error
              (Printf.sprintf "bad endpoint %S (host:port or unix:path)" s))

let inet_addr host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)

let sockaddr_of = function
  | Tcp (host, port) -> Unix.ADDR_INET (inet_addr host, port)
  | Unix_sock path -> Unix.ADDR_UNIX path

let fresh_socket ep =
  let fd =
    match ep with
    | Tcp _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0
    | Unix_sock _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  Unix.set_close_on_exec fd;
  fd

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let listen ?(backlog = 16) ep =
  let fd = fresh_socket ep in
  (match ep with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ()));
  (try Unix.bind fd (sockaddr_of ep)
   with e ->
     close_quiet fd;
     raise e);
  Unix.listen fd backlog;
  fd

let bound_endpoint fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (addr, port) -> Tcp (Unix.string_of_inet_addr addr, port)
  | Unix.ADDR_UNIX path -> Unix_sock path

let rec select_read fds timeout =
  try
    let r, _, _ = Unix.select fds [] [] timeout in
    r
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_read fds timeout

let accept ?(deadline_s = 5.0) lfd =
  match select_read [ lfd ] deadline_s with
  | [] -> None
  | _ ->
      let fd, _ = Unix.accept lfd in
      Unix.set_close_on_exec fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      Some fd

let connect ?(attempts = 40) ?(base_backoff_s = 0.01) ?(backoff_cap_s = 0.5)
    ep =
  let addr = sockaddr_of ep in
  let rec go i backoff =
    let fd = fresh_socket ep in
    match Unix.connect fd addr with
    | () ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT | ECONNRESET), _, _)
      when i < attempts ->
        close_quiet fd;
        Unix.sleepf backoff;
        go (i + 1) (Float.min backoff_cap_s (backoff *. 2.))
    | exception e ->
        close_quiet fd;
        raise e
  in
  try go 1 base_backoff_s
  with Unix.Unix_error ((ECONNREFUSED | ENOENT | ECONNRESET), _, _) ->
    failwith
      (Printf.sprintf "Transport_socket.connect: %s unreachable after %d attempts"
         (endpoint_to_string ep) attempts)

let rec write_all fd s pos len =
  if len > 0 then
    match Unix.write_substring fd s pos len with
    | n -> write_all fd s (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s pos len

let send_frame fd payload =
  let enc = Frame_codec.encode payload in
  write_all fd enc 0 (String.length enc)

let send_half_frame fd payload =
  let enc = Frame_codec.encode payload in
  write_all fd enc 0 (String.length enc / 2)

type recv_result = Frame of string | Timeout | Closed

let recv_frame ?(deadline_s = 5.0) ~buf fd dec =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec go () =
    match Frame_codec.Decoder.next dec with
    | Ok (Some f) -> Frame f
    | Error _ -> Closed
    | Ok None -> (
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0. then Timeout
        else
          match select_read [ fd ] remaining with
          | [] -> Timeout
          | _ -> (
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> Closed
              | n ->
                  Frame_codec.Decoder.feed dec ~len:n
                    (Bytes.unsafe_to_string buf);
                  go ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
              | exception
                  Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
                  Closed))
  in
  go ()

(* ------------------------------------------------------------------ *)
(* In-process loopback link                                            *)

let reconnects = ref 0

let m_reconnects =
  lazy (Obs.Metrics.counter "replica_socket_reconnects_total")

let note_reconnect () =
  incr reconnects;
  Obs.Metrics.inc (Lazy.force m_reconnects)

let reconnects_total () = !reconnects

type conn = {
  lfd : Unix.file_descr;
  addr : endpoint;  (** the listener's bound, dialable address *)
  dec : Frame_codec.Decoder.t;
  rbuf : Bytes.t;
      (** read scratch, one per link: a fresh 64 KiB buffer per read
          would go straight to the major heap *)
  ready : string Queue.t;  (** decoded frames awaiting [recv] *)
  mutable out : Bytes.t;
      (** the outbox: encoded frames sent but not yet written, in
          [out.[out_start .. out_end - 1]] *)
  mutable out_start : int;
  mutable out_end : int;
  gate : Transport.Gate.t;
  mutable wfd : Unix.file_descr;  (** dialed end: we write here *)
  mutable rfd : Unix.file_descr;  (** accepted end: we read here *)
  mutable in_flight : int;
      (** frames handed to the wire path, not yet decoded *)
  mutable closed : bool;
}

let establish c =
  let wfd = connect c.addr in
  Unix.set_nonblock wfd;
  match accept ~deadline_s:5.0 c.lfd with
  | Some rfd ->
      c.wfd <- wfd;
      c.rfd <- rfd
  | None ->
      close_quiet wfd;
      failwith "Transport_socket.loopback: accept timed out"

let outbox_length c = c.out_end - c.out_start

let outbox_clear c =
  c.out_start <- 0;
  c.out_end <- 0

(* Append behind the unsent bytes. Out of room, slide them to the
   front when they fill at most half the buffer, else double it: each
   byte is copied a constant number of times however long the backlog
   grows. *)
let outbox_add c s =
  let len = String.length s in
  if c.out_end + len > Bytes.length c.out then begin
    let live = outbox_length c in
    let cap = Bytes.length c.out in
    let dst =
      if 2 * (live + len) <= cap then c.out
      else Bytes.create (max (2 * cap) (live + len))
    in
    Bytes.blit c.out c.out_start dst 0 live;
    c.out <- dst;
    c.out_start <- 0;
    c.out_end <- live
  end;
  Bytes.blit_string s 0 c.out c.out_end len;
  c.out_end <- c.out_end + len

(* One nonblocking write of as much of the outbox as the kernel takes.
   Blocking here would deadlock the loopback: the only reader is this
   process. *)
let pump_out c =
  let len = outbox_length c in
  if len > 0 then
    match Unix.single_write c.wfd c.out c.out_start len with
    | n when n = len -> outbox_clear c
    | n -> c.out_start <- c.out_start + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

(* Decode whatever the buffer holds; false means the stream lost
   framing and the connection must be torn down. *)
let pump_frames c =
  let rec go () =
    match Frame_codec.Decoder.next c.dec with
    | Ok (Some f) ->
        Queue.push f c.ready;
        c.in_flight <- max 0 (c.in_flight - 1);
        go ()
    | Ok None -> true
    | Error _ -> false
  in
  go ()

let read_avail c ~timeout =
  match select_read [ c.rfd ] timeout with
  | [] -> `Nothing
  | _ -> (
      match Unix.read c.rfd c.rbuf 0 (Bytes.length c.rbuf) with
      | 0 -> `Eof
      | n ->
          Frame_codec.Decoder.feed c.dec ~len:n (Bytes.unsafe_to_string c.rbuf);
          `Read
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Nothing
      | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
          `Eof)

(* Push stuck outbox bytes through by draining the receive side — the
   loopback's two ends share this process, so freeing the read buffer
   is what unblocks the write buffer. *)
let flush_outbox c =
  let guard = ref 0 in
  while outbox_length c > 0 && !guard < 10_000 do
    incr guard;
    pump_out c;
    if outbox_length c > 0 then begin
      ignore (read_avail c ~timeout:0.01);
      ignore (pump_frames c)
    end
  done

let teardown c =
  close_quiet c.wfd;
  close_quiet c.rfd;
  Frame_codec.Decoder.reset c.dec;
  c.in_flight <- 0

(* Abortive reset: the triggering frame and every frame sent since the
   last drain (still in the outbox or the kernel's buffers) is lost;
   frames already decoded (and gate-held ones) are not. *)
let abortive_reset c =
  outbox_clear c;
  teardown c;
  establish c;
  note_reconnect ()

let drain_to_eof c =
  let continue = ref true and guard = ref 0 in
  while !continue && !guard < 10_000 do
    incr guard;
    match read_avail c ~timeout:5.0 with
    | `Eof | `Nothing -> continue := false
    | `Read -> ignore (pump_frames c)
  done;
  ignore (pump_frames c)

(* Truncate-mid-frame at the byte level: half the encoded frame goes
   out, then the connection tears. The receiver decodes every complete
   predecessor, the torn frame self-invalidates with the stream
   (codec's reset-on-disconnect), and a fresh connection carries on —
   the protocol heals the gap by retransmit. *)
let truncate_wire c frame =
  let enc = Frame_codec.encode frame in
  outbox_add c (String.sub enc 0 (String.length enc / 2));
  flush_outbox c;
  (try Unix.shutdown c.wfd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  drain_to_eof c;
  teardown c;
  establish c;
  note_reconnect ()

(* A send makes no syscall: the frame waits in the outbox for the next
   [recv], which writes everything queued since the last drain at
   once. *)
let io c : Transport.Gate.io =
  { deliver =
      (fun frame ->
        outbox_add c (Frame_codec.encode frame);
        c.in_flight <- c.in_flight + 1);
    truncate = (fun frame -> truncate_wire c frame);
    reset = (fun () -> abortive_reset c) }

let send c frame =
  if c.closed then invalid_arg "Transport_socket: link is closed";
  Transport.Gate.send c.gate (io c) frame

let rec recv c =
  if c.closed then None
  else if not (Queue.is_empty c.ready) then Some (Queue.pop c.ready)
  else if c.in_flight > 0 || outbox_length c > 0 then begin
    (* Frames are provably in flight: pump the wire until one decodes
       or a generous deadline passes (loopback I/O is local, so this
       only trips if something is genuinely broken). *)
    let deadline = Unix.gettimeofday () +. 5.0 in
    let result = ref None and continue = ref true in
    while !continue do
      pump_out c;
      if not (pump_frames c) then begin
        (* Lost framing mid-stream: indistinguishable from a reset. *)
        abortive_reset c;
        continue := false
      end
      else if not (Queue.is_empty c.ready) then begin
        result := Some (Queue.pop c.ready);
        continue := false
      end
      else if Unix.gettimeofday () > deadline then continue := false
      else
        match read_avail c ~timeout:0.05 with
        | `Eof ->
            ignore (pump_frames c);
            teardown c;
            establish c;
            note_reconnect ();
            if not (Queue.is_empty c.ready) then begin
              result := Some (Queue.pop c.ready);
              continue := false
            end
        | `Read | `Nothing -> ()
    done;
    !result
  end
  else if Transport.Gate.on_idle c.gate (io c) then recv c
  else None

let pending c =
  Transport.Gate.pending c.gate + c.in_flight + Queue.length c.ready

let clear c =
  Transport.Gate.clear c.gate;
  outbox_clear c;
  Queue.clear c.ready;
  if not c.closed then begin
    teardown c;
    establish c
  end

let close c =
  if not c.closed then begin
    c.closed <- true;
    close_quiet c.wfd;
    close_quiet c.rfd;
    close_quiet c.lfd;
    match c.addr with
    | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  end

let loopback ?(endpoint = Tcp ("127.0.0.1", 0)) () =
  let lfd = listen endpoint in
  let addr = bound_endpoint lfd in
  let c =
    { lfd;
      addr;
      dec = Frame_codec.Decoder.create ();
      rbuf = Bytes.create 65536;
      ready = Queue.create ();
      out = Bytes.create 4096;
      out_start = 0;
      out_end = 0;
      gate = Transport.Gate.create ();
      wfd = lfd;
      rfd = lfd;
      in_flight = 0;
      closed = false }
  in
  establish c;
  { Transport.send = send c;
    recv = (fun () -> recv c);
    pending = (fun () -> pending c);
    arm = Transport.Gate.arm c.gate;
    clear = (fun () -> clear c);
    stats = (fun () -> Transport.Gate.stats c.gate);
    close = (fun () -> close c) }
