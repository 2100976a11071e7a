let magic = "mmd-engine-wal v2"

(* Every version's magic starts with this, so a file of another version
   is refused by name instead of being read as something else. *)
let family = "mmd-engine-wal "

let is_wal text = String.starts_with ~prefix:family text

module Crc32 = Prelude.Crc32

(* ---------- Record layout ----------

   offset  size  field
   0       2     sync marker 0xa7 'W'
   2       3     payload length, unsigned little-endian
   5       1     length check, [length_check] of bytes 2..4
   6       4     CRC-32 of the payload, little-endian
   10      len   payload

   The payload is the sequence number (unsigned varint), a kind byte,
   then the delta's fields: ints as zigzag varints, counts as unsigned
   varints, floats as their IEEE-754 bits (8 bytes, little-endian).
   The CRC covers the payload and so the seq: a record moved to
   another position fails verification. The length check lets
   recovery tell a damaged length from a damaged payload, so a record
   whose payload fails its CRC is skipped by its own length. *)

let header_len = 10
let max_payload = (1 lsl 24) - 1
let sync0 = '\xa7'
let sync1 = 'W'

(* Changes under any single flipped bit: each byte's factor is odd. *)
let length_check b0 b1 b2 = (0xa5 + b0 + (3 * b1) + (5 * b2)) land 0xff

(* The smallest record: a one-byte seq, the kind byte and one byte of
   body. *)
let min_record = header_len + 3

let kind_join = 0
let kind_leave = 1
let kind_cost = 2
let kind_budget = 3

(* ---------- Encoder ---------- *)

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor -(z land 1)

(* Varints read the int as unsigned, so a zigzagged [max_int] or
   [min_int] takes 9 bytes and never a 10th. *)
let rec uvarint_size z = if z lsr 7 = 0 then 1 else 1 + uvarint_size (z lsr 7)

let rec put_uvarint b pos z =
  if z lsr 7 = 0 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr z);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (z land 0x7f lor 0x80));
    put_uvarint b (pos + 1) (z lsr 7)
  end

let put_floats b pos xs =
  Array.iteri
    (fun i x -> Bytes.set_int64_le b (pos + (8 * i)) (Int64.bits_of_float x))
    xs;
  pos + (8 * Array.length xs)

let floats_size xs = uvarint_size (Array.length xs) + (8 * Array.length xs)

let payload_size ~seq (d : Delta.t) =
  uvarint_size seq + 1
  +
  match d with
  | User_leave slot -> uvarint_size (zigzag slot)
  | Stream_cost_change { stream; costs } ->
      uvarint_size (zigzag stream) + floats_size costs
  | Budget_resize budgets -> floats_size budgets
  | User_join { capacity; interests; _ } ->
      let mc = Array.length capacity in
      List.fold_left
        (fun acc (s, _, loads) ->
          if Array.length loads <> mc then
            invalid_arg "Wal.record_to_string: join loads arity <> capacity arity";
          acc + uvarint_size (zigzag s) + 8 + (8 * mc))
        (8 + floats_size capacity + uvarint_size (List.length interests))
        interests

let put_payload b pos ~seq (d : Delta.t) =
  let pos = put_uvarint b pos seq in
  let kind k =
    Bytes.unsafe_set b pos (Char.unsafe_chr k);
    pos + 1
  in
  match d with
  | User_leave slot -> put_uvarint b (kind kind_leave) (zigzag slot)
  | Stream_cost_change { stream; costs } ->
      let pos = put_uvarint b (kind kind_cost) (zigzag stream) in
      put_floats b (put_uvarint b pos (Array.length costs)) costs
  | Budget_resize budgets ->
      put_floats b (put_uvarint b (kind kind_budget) (Array.length budgets)) budgets
  | User_join { utility_cap; capacity; interests } ->
      let pos = kind kind_join in
      Bytes.set_int64_le b pos (Int64.bits_of_float utility_cap);
      let pos = put_uvarint b (pos + 8) (Array.length capacity) in
      let pos = put_floats b pos capacity in
      let pos = put_uvarint b pos (List.length interests) in
      List.fold_left
        (fun pos (s, w, loads) ->
          let pos = put_uvarint b pos (zigzag s) in
          Bytes.set_int64_le b pos (Int64.bits_of_float w);
          put_floats b (pos + 8) loads)
        pos interests

let record_to_string ~seq d =
  if seq < 1 then invalid_arg "Wal.record_to_string: seq < 1";
  let len = payload_size ~seq d in
  if len > max_payload then invalid_arg "Wal.record_to_string: record too large";
  let b = Bytes.create (header_len + len) in
  ignore (put_payload b header_len ~seq d);
  let l0 = len land 0xff and l1 = (len lsr 8) land 0xff and l2 = len lsr 16 in
  Bytes.unsafe_set b 0 sync0;
  Bytes.unsafe_set b 1 sync1;
  Bytes.unsafe_set b 2 (Char.unsafe_chr l0);
  Bytes.unsafe_set b 3 (Char.unsafe_chr l1);
  Bytes.unsafe_set b 4 (Char.unsafe_chr l2);
  Bytes.unsafe_set b 5 (Char.unsafe_chr (length_check l0 l1 l2));
  Bytes.set_int32_le b 6
    (Crc32.digest_sub (Bytes.unsafe_to_string b) ~pos:header_len ~len);
  Bytes.unsafe_to_string b

(* ---------- Decoder ---------- *)

(* Local to the decoder: every path that raises it returns [Error]. *)
exception Malformed of string

let bad msg = raise (Malformed msg)

type cursor = { s : string; mutable p : int; stop : int }

let byte c =
  if c.p >= c.stop then bad "truncated payload";
  let v = Char.code (String.unsafe_get c.s c.p) in
  c.p <- c.p + 1;
  v

(* At most 9 bytes (63 bits); a final zero byte after the first would
   be a second spelling of a shorter varint, so it is refused. *)
let uvarint c =
  let rec go shift acc =
    let v = byte c in
    let acc = acc lor ((v land 0x7f) lsl shift) in
    if v land 0x80 = 0 then
      if v = 0 && shift > 0 then bad "overlong varint" else acc
    else if shift = 56 then bad "varint longer than 9 bytes"
    else go (shift + 7) acc
  in
  go 0 0

(* A count whose items, at [unit] bytes each, still fit in the payload:
   nothing is allocated from a length the bytes cannot back. *)
let count c ~unit =
  let n = uvarint c in
  if n < 0 || n > (c.stop - c.p) / unit then bad "count exceeds the payload";
  n

let float c =
  if c.stop - c.p < 8 then bad "truncated payload";
  let x = Int64.float_of_bits (String.get_int64_le c.s c.p) in
  c.p <- c.p + 8;
  x

let floats c n =
  let xs = Array.create_float n in
  for i = 0 to n - 1 do
    xs.(i) <- float c
  done;
  xs

let counted_floats c = floats c (count c ~unit:8)

let payload c : int * Delta.t =
  let seq = uvarint c in
  if seq < 1 then bad "bad sequence number";
  let k = byte c in
  let d : Delta.t =
    if k = kind_leave then User_leave (unzigzag (uvarint c))
    else if k = kind_cost then
      let stream = unzigzag (uvarint c) in
      Stream_cost_change { stream; costs = counted_floats c }
    else if k = kind_budget then Budget_resize (counted_floats c)
    else if k = kind_join then begin
      let utility_cap = float c in
      let capacity = counted_floats c in
      let mc = Array.length capacity in
      let n = count c ~unit:(9 + (8 * mc)) in
      let rec interests i acc =
        if i = n then List.rev acc
        else
          let s = unzigzag (uvarint c) in
          let w = float c in
          let loads = floats c mc in
          interests (i + 1) ((s, w, loads) :: acc)
      in
      User_join { utility_cap; capacity; interests = interests 0 [] }
    end
    else bad (Printf.sprintf "unknown record kind %d" k)
  in
  if c.p <> c.stop then bad "trailing bytes after the delta";
  (seq, d)

(* The payload length the header at [s.[pos]] declares, when the
   header is sound; needs [header_len] bytes. *)
let header s pos =
  if s.[pos] <> sync0 || s.[pos + 1] <> sync1 then Error "bad sync marker"
  else
    let l0 = Char.code s.[pos + 2]
    and l1 = Char.code s.[pos + 3]
    and l2 = Char.code s.[pos + 4] in
    if Char.code s.[pos + 5] <> length_check l0 l1 l2 then Error "bad length check"
    else Ok (l0 lor (l1 lsl 8) lor (l2 lsl 16))

(* Verifies the CRC of a whole record at [pos] whose payload is [len]
   bytes, and decodes it in place. *)
let verify s pos len =
  let stored = Int32.to_int (String.get_int32_le s (pos + 6)) land 0xffffffff in
  let actual = Crc32.digest_sub s ~pos:(pos + header_len) ~len in
  if Int32.to_int actual land 0xffffffff <> stored then
    Error
      (Printf.sprintf "checksum mismatch (stored %08x, actual %s)" stored
         (Crc32.to_hex actual))
  else
    match payload { s; p = pos + header_len; stop = pos + header_len + len } with
    | r -> Ok r
    | exception Malformed msg -> Error msg

let record_of_substring s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Wal.record_of_substring";
  if len < header_len then
    Error (Printf.sprintf "not a WAL record (%d bytes, header is %d)" len header_len)
  else
    match header s pos with
    | Error _ as e -> e
    | Ok plen when header_len + plen <> len ->
        Error
          (Printf.sprintf "record length %d does not match its %d bytes"
             (header_len + plen) len)
    | Ok plen -> verify s pos plen

let record_of_string s = record_of_substring s ~pos:0 ~len:(String.length s)

let to_string ?(first_seq = 1) deltas =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  List.iteri
    (fun i d -> Buffer.add_string buf (record_to_string ~seq:(first_seq + i) d))
    deltas;
  Buffer.contents buf

(* ---------- Recovery ---------- *)

type quarantined = { offset : int; reason : string }

type recovery = {
  records : (int * Delta.t) list;
  quarantined : quarantined list;
  last_seq : int;
  torn_tail : bool;
}

let m_append_seconds = lazy (Obs.Metrics.histogram "wal_append_seconds")
let m_replayed = lazy (Obs.Metrics.counter "wal_records_replayed_total")

(* A window on the input: [bytes.[0 .. fill-1]] holds the input from
   offset [base]. A string is one window that is all there is; a
   channel is read in 64 KiB blocks, and bytes before the offset being
   examined are dropped, so recovery holds one record's bytes (plus a
   block), never the file. *)
type source = {
  ic : in_channel option;
  mutable bytes : Bytes.t;
  mutable base : int;
  mutable fill : int;
  mutable eof : bool;
}

let block = 65536

let source_of_string text =
  { ic = None; bytes = Bytes.unsafe_of_string text; base = 0;
    fill = String.length text; eof = true }

let source_of_channel ic =
  { ic = Some ic; bytes = Bytes.create block; base = 0; fill = 0; eof = false }

(* Bytes available from input offset [off] (never before the last
   offset asked for), reading until at least [n] are or the input
   ends. *)
let ensure src off n =
  let have = src.base + src.fill - off in
  if have >= n || src.eof then max 0 have
  else
    match src.ic with
    | None -> max 0 have
    | Some ic ->
        Bytes.blit src.bytes (off - src.base) src.bytes 0 have;
        src.base <- off;
        src.fill <- have;
        if n > Bytes.length src.bytes then begin
          let b = Bytes.create (max n (2 * Bytes.length src.bytes)) in
          Bytes.blit src.bytes 0 b 0 have;
          src.bytes <- b
        end;
        while src.fill < n && not src.eof do
          let r = input ic src.bytes src.fill (Bytes.length src.bytes - src.fill) in
          if r = 0 then src.eof <- true else src.fill <- src.fill + r
        done;
        src.fill

(* What is at input offset [off]. A bad record's [extent] is its
   length when its header is sound (0 when not), and [torn] says the
   input ends before the record does. *)
type probe =
  | Good of { seq : int; delta : Delta.t; len : int }
  | Bad of { reason : string; extent : int; torn : bool }

let probe src off =
  let avail = ensure src off header_len in
  if avail < header_len then
    Bad { reason = "truncated record header"; extent = 0; torn = true }
  else
    match header (Bytes.unsafe_to_string src.bytes) (off - src.base) with
    | Error reason -> Bad { reason; extent = 0; torn = false }
    | Ok plen ->
        let len = header_len + plen in
        if ensure src off len < len then
          Bad
            { reason =
                Printf.sprintf "truncated record (%d of %d bytes)"
                  (src.base + src.fill - off) len;
              extent = len;
              torn = true }
        else (
          match verify (Bytes.unsafe_to_string src.bytes) (off - src.base) plen with
          | Ok (seq, delta) -> Good { seq; delta; len }
          | Error reason -> Bad { reason; extent = len; torn = false })

let has_sync src off =
  ensure src off 2 >= 2
  && Bytes.get src.bytes (off - src.base) = sync0
  && Bytes.get src.bytes (off - src.base + 1) = sync1

type state = {
  first_seq : int;  (* the sequence number the input's first record has *)
  mutable records : (int * Delta.t) list;
  mutable quarantined : quarantined list;
  mutable last_seq : int;
  mutable torn : bool;
}

let quarantine st offset reason =
  st.quarantined <- { offset; reason } :: st.quarantined

(* The damaged bytes from [p], whose record failed with [first], up to
   the next offset where a whole record verifies (or the end). They are
   cut into one quarantined entry per record they held: a record with
   a sound header ends where its length says, and one without ends at
   the next sound header. When a verified record follows the damage,
   the gap between its sequence number and the previous verified one
   (or, before any, the input's [first_seq]) counts the records lost
   in between, which catches adjacent records whose headers were both
   damaged. Returns where the next verified record starts, or [None]
   at the end of the input. *)
let resync st src p first =
  let segments = ref [ (p, first) ] in
  let boundary extent off = if extent > 0 then Some (off + extent) else None in
  let next =
    ref (match first with Bad b -> boundary b.extent p | Good _ -> None)
  in
  let rec scan y =
    if ensure src y 1 = 0 then None
    else
      let at_boundary = !next = Some y in
      if at_boundary || has_sync src y then
        match probe src y with
        | Good { seq; _ } -> Some (y, seq)
        | Bad b as bad ->
            if at_boundary || (!next = None && b.extent > 0) then begin
              segments := (y, bad) :: !segments;
              next := boundary b.extent y
            end;
            scan (y + 1)
      else scan (y + 1)
  in
  let stop = scan (p + 1) in
  let segments = List.rev !segments in
  let last = List.length segments - 1 in
  List.iteri
    (fun i (off, pr) ->
      match pr with
      | Bad { reason; torn; _ } when i = last && torn && stop = None ->
          st.torn <- true;
          quarantine st off ("torn tail: " ^ reason)
      | Bad { reason; _ } -> quarantine st off reason
      | Good _ -> ())
    segments;
  (match stop with
  | Some (q, seq) ->
      let prev = if st.last_seq > 0 then st.last_seq else st.first_seq - 1 in
      let lost = min (seq - prev - 1) ((q - p) / min_record) in
      let off = fst (List.nth segments last) in
      for _ = List.length segments + 1 to lost do
        quarantine st off
          (Printf.sprintf "record lost inside the damaged bytes %d..%d" p q)
      done
  | _ -> ());
  Option.map fst stop

let recover_records st src start =
  let rec go p =
    if ensure src p 1 > 0 then
      match probe src p with
      | Good { seq; delta; len } ->
          if seq <= st.last_seq then
            quarantine st p
              (Printf.sprintf
                 "sequence regression (%d after %d) — replayed or reordered \
                  record"
                 seq st.last_seq)
          else begin
            st.records <- (seq, delta) :: st.records;
            st.last_seq <- seq
          end;
          go (p + len)
      | Bad _ as first -> (
          match resync st src p first with Some q -> go q | None -> ())
  in
  go start

let first_line src =
  let avail = ensure src 0 128 in
  let s = Bytes.sub_string src.bytes 0 (min avail 128) in
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

let recover_source ~first_seq src =
  let m = String.length magic in
  let avail = ensure src 0 (m + 1) in
  let s = Bytes.unsafe_to_string src.bytes in
  if avail >= m && String.sub s 0 m = magic && (avail = m || s.[m] = '\n') then begin
    let st =
      { first_seq; records = []; quarantined = []; last_seq = 0; torn = false }
    in
    recover_records st src (m + 1);
    Obs.Metrics.inc ~n:(List.length st.records) (Lazy.force m_replayed);
    Ok
      { records = List.rev st.records;
        quarantined = List.rev st.quarantined;
        last_seq = st.last_seq;
        torn_tail = st.torn }
  end
  else
    let line = first_line src in
    if is_wal line then
      Error
        (Printf.sprintf "Wal.recover: %S is not readable by this build (it reads %s)"
           line magic)
    else Error "Wal.recover: not a WAL (bad magic line)"

let recover_string ?(first_seq = 1) text =
  Obs.Span.with_ ~name:"wal.recover" (fun () ->
      recover_source ~first_seq (source_of_string text))

let recover_file ?(first_seq = 1) path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Obs.Span.with_ ~name:"wal.recover" (fun () ->
              recover_source ~first_seq (source_of_channel ic)))
  | exception Sys_error msg -> Error msg

let write_file ?first_seq path deltas =
  Atomic_file.write path (to_string ?first_seq deltas)

type writer = { oc : out_channel; mutable next_seq : int }

let append_file ?(next_seq = 1) path =
  let fresh = not (Sys.file_exists path) in
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path
  in
  if fresh then begin
    output_string oc magic;
    output_char oc '\n';
    flush oc
  end;
  { oc; next_seq }

let append_tee ?(flush = true) w delta =
  let t0 = Obs.Clock.now () in
  let seq = w.next_seq in
  let record = record_to_string ~seq delta in
  w.next_seq <- seq + 1;
  output_string w.oc record;
  (* Batch appenders pass [~flush:false] and flush once per batch: the
     bytes on disk are the same either way, only the durability point
     moves to the end of the batch. *)
  if flush then Stdlib.flush w.oc;
  Obs.Hist.observe (Lazy.force m_append_seconds) (Obs.Clock.elapsed_since t0);
  (seq, record)

let append w delta = fst (append_tee w delta)
let flush_writer w = flush w.oc
let close w = close_out w.oc
