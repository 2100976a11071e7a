let magic = "mmd-engine-wal v1"

let is_wal text =
  String.length text >= String.length magic
  && String.sub text 0 (String.length magic) = magic

module Crc32 = Prelude.Crc32

let hex = "0123456789abcdef"

(* The CRC covers "<seq> <payload>" so that a bit-perfect record pasted
   at a different position (different seq) still fails verification.
   It is chained over "<seq> " and then the payload, so that string is
   never built. *)
let record_to_string ~seq delta =
  let payload = Delta.to_string delta in
  let seq_s = string_of_int seq in
  let ls = String.length seq_s and lp = String.length payload in
  let crc =
    Crc32.digest_sub ~init:(Crc32.digest ~init:(Crc32.digest seq_s) " ")
      payload ~pos:0 ~len:lp
  in
  let c = Int32.to_int crc in
  let b = Bytes.create (ls + 10 + lp) in
  Bytes.blit_string seq_s 0 b 0 ls;
  Bytes.set b ls ' ';
  for k = 0 to 7 do
    Bytes.set b (ls + 1 + k) hex.[(c lsr (28 - (4 * k))) land 0xf]
  done;
  Bytes.set b (ls + 9) ' ';
  Bytes.blit_string payload 0 b (ls + 10) lp;
  Bytes.unsafe_to_string b

(* [line.[0 .. i-1]] as a sequence number when it is written the way
   the encoder writes one (decimal, no sign, no leading zero), else -1. *)
let canonical_seq line i =
  let rec go k acc =
    if k = i then acc
    else
      match line.[k] with
      | '0' .. '9' as c -> go (k + 1) ((acc * 10) + Char.code c - 48)
      | _ -> -1
  in
  if i < 1 || i > 18 || line.[0] = '0' then -1 else go 0 0

(* The 8 hex digits at [line.[a .. b-1]] as an unsigned 32-bit value,
   or -1 (the field is exactly what [Crc32.of_hex] accepts). *)
let hex_field line a b =
  let rec go k acc =
    if k = b then acc
    else
      match line.[k] with
      | '0' .. '9' as c -> go (k + 1) ((acc lsl 4) lor (Char.code c - 48))
      | 'a' .. 'f' as c -> go (k + 1) ((acc lsl 4) lor (Char.code c - 87))
      | 'A' .. 'F' as c -> go (k + 1) ((acc lsl 4) lor (Char.code c - 55))
      | _ -> -1
  in
  if b - a <> 8 then -1 else go a 0

(* Verifies the CRC over the line's own bytes and parses the payload in
   place. *)
let record_of_string line =
  let n = String.length line in
  match String.index_opt line ' ' with
  | None -> Error "not a WAL record (no sequence field)"
  | Some i -> (
      let bad_seq () =
        Error (Printf.sprintf "bad sequence number %S" (String.sub line 0 i))
      in
      (* A sequence field in another integer form ("+5", "05") still
         names its value, and the CRC covers the canonical rendering. *)
      let seq, init =
        match canonical_seq line i with
        | -1 -> (
            match int_of_string_opt (String.sub line 0 i) with
            | Some seq when seq >= 1 ->
                (seq, Crc32.digest (string_of_int seq ^ " "))
            | _ -> (-1, 0l))
        | seq -> (seq, Crc32.digest_sub line ~pos:0 ~len:(i + 1))
      in
      if seq < 1 then bad_seq ()
      else
        match String.index_from_opt line (i + 1) ' ' with
        | None -> Error "not a WAL record (no checksum field)"
        | Some j ->
            let crc_tok () = String.sub line (i + 1) (j - i - 1) in
            let stored = hex_field line (i + 1) j in
            if stored < 0 then
              Error (Printf.sprintf "bad checksum field %S" (crc_tok ()))
            else
              let pos = j + 1 in
              let len = n - pos in
              let actual = Crc32.digest_sub ~init line ~pos ~len in
              if Int32.to_int actual land 0xffffffff <> stored then
                Error
                  (Printf.sprintf "checksum mismatch (stored %s, actual %s)"
                     (crc_tok ()) (Crc32.to_hex actual))
              else
                Result.map
                  (fun d -> (seq, d))
                  (Delta.of_substring_result line ~pos ~len))

let to_string ?(first_seq = 1) deltas =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  List.iteri
    (fun i d ->
      Buffer.add_string buf (record_to_string ~seq:(first_seq + i) d);
      Buffer.add_char buf '\n')
    deltas;
  Buffer.contents buf

type quarantined = { line : int; reason : string }

type recovery = {
  records : (int * Delta.t) list;
  quarantined : quarantined list;
  last_seq : int;
  torn_tail : bool;
}

let m_append_seconds = lazy (Obs.Metrics.histogram "wal_append_seconds")
let m_replayed = lazy (Obs.Metrics.counter "wal_records_replayed_total")

(* Recovery runs over a pull-based line source
   [unit -> (string * bool) option] so the string path and the
   streaming channel path share one verifier: the source yields
   [(line, terminated)] — the line without its newline, and whether a
   newline actually closed it. A final unterminated line is the torn-
   tail candidate. *)
let source_of_string text =
  let len = String.length text in
  let pos = ref 0 in
  fun () ->
    if !pos >= len then None
    else
      match String.index_from_opt text !pos '\n' with
      | Some i ->
          let line = String.sub text !pos (i - !pos) in
          pos := i + 1;
          Some (line, true)
      | None ->
          let line = String.sub text !pos (len - !pos) in
          pos := len;
          Some (line, false)

(* Reads the channel in blocks and cuts lines out of them: a
   multi-gigabyte shipped log recovers in memory proportional to its
   records, not to the file. A line that spans blocks is assembled in
   [line]. *)
let source_of_channel ic =
  let block = Bytes.create 65536 in
  let pos = ref 0 and filled = ref 0 in
  let line = Buffer.create 256 in
  let eof = ref false in
  let rec newline i =
    if i = !filled then -1 else if Bytes.get block i = '\n' then i else newline (i + 1)
  in
  let rec scan () =
    if !pos = !filled then begin
      filled := input ic block 0 (Bytes.length block);
      pos := 0
    end;
    if !filled = 0 then begin
      eof := true;
      if Buffer.length line = 0 then None
      else Some (Buffer.contents line, false)
    end
    else
      match newline !pos with
      | -1 ->
          Buffer.add_subbytes line block !pos (!filled - !pos);
          pos := !filled;
          scan ()
      | k ->
          Buffer.add_subbytes line block !pos (k - !pos);
          pos := k + 1;
          Some (Buffer.contents line, true)
  in
  fun () ->
    if !eof then None
    else begin
      Buffer.clear line;
      scan ()
    end

let recover_source source =
  match source () with
  | Some (first, _) when first = magic ->
      let records = ref [] and quarantined = ref [] in
      let last_seq = ref 0 and torn = ref false in
      let consume lineno (line, terminated) ~is_last =
        if String.trim line <> "" then
          match record_of_string line with
          | Ok (seq, d) ->
              if seq <= !last_seq then
                quarantined :=
                  { line = lineno;
                    reason =
                      Printf.sprintf
                        "sequence regression (%d after %d) — replayed or \
                         reordered record"
                        seq !last_seq }
                  :: !quarantined
              else begin
                records := (seq, d) :: !records;
                last_seq := seq
              end
          | Error reason ->
              if is_last && not terminated then begin
                torn := true;
                quarantined :=
                  { line = lineno; reason = "torn tail: " ^ reason }
                  :: !quarantined
              end
              else quarantined := { line = lineno; reason } :: !quarantined
      in
      (* One line of lookahead, so "last line" is known when a record
         fails to verify — torn tail vs ordinary corruption. *)
      let rec go lineno current =
        match source () with
        | None -> consume lineno current ~is_last:true
        | Some next ->
            consume lineno current ~is_last:false;
            go (lineno + 1) next
      in
      (match source () with None -> () | Some current -> go 2 current);
      Obs.Metrics.inc ~n:(List.length !records) (Lazy.force m_replayed);
      Ok
        { records = List.rev !records;
          quarantined = List.rev !quarantined;
          last_seq = !last_seq;
          torn_tail = !torn }
  | _ -> Error "Wal.recover: not a WAL (bad magic line)"

let recover_string text =
  Obs.Span.with_ ~name:"wal.recover" (fun () ->
      recover_source (source_of_string text))

let recover_channel ic =
  Obs.Span.with_ ~name:"wal.recover" (fun () ->
      recover_source (source_of_channel ic))

let recover_file path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> recover_channel ic)
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
  w.next_seq <- seq + 1;
  let line = record_to_string ~seq delta in
  output_string w.oc line;
  output_char w.oc '\n';
  (* Batch appenders pass [~flush:false] and flush once per batch —
     the record framing on disk is byte-identical either way, only the
     durability point moves to the end of the batch. *)
  if flush then Stdlib.flush w.oc;
  Obs.Hist.observe (Lazy.force m_append_seconds) (Obs.Clock.elapsed_since t0);
  (seq, line)

let append w delta = fst (append_tee w delta)
let flush_writer w = flush w.oc
let close w = close_out w.oc
