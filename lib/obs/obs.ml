(* Observability substrate: monotonic wall clock, log-scaled latency
   histograms, a labeled metric registry, and tracing spans that nest
   across Prelude.Pool tasks. Zero dependencies beyond the OCaml
   distribution (unix) and prelude. *)

module Clock = struct
  (* Wall clock made monotone: a torn NTP step backwards repeats the
     last value instead of producing negative latencies. The CAS loop
     makes the non-decreasing guarantee hold across domains too. *)
  let last = Atomic.make 0.

  let rec now () =
    let t = Unix.gettimeofday () in
    let l = Atomic.get last in
    if t >= l then if Atomic.compare_and_set last l t then t else now ()
    else l

  let elapsed_since t0 = Float.max 0. (now () -. t0)
end

module Hist = struct
  (* Log-scaled buckets: 4 per octave starting at 1 ns, 176 buckets —
     the last finite boundary is 1e-9 * 2^44 ≈ 4.9 hours, far beyond
     any latency this engine records. Exact count/sum/min/max ride
     along so means and extremes are not quantized. *)
  let lowest = 1e-9
  let per_octave = 4
  let num_buckets = 176

  type t = {
    counts : int array;
    mutable count : int;
    mutable sum : float;
    mutable sum_sq : float;
    mutable vmin : float;
    mutable vmax : float;
    lock : Mutex.t;
  }

  let create () =
    { counts = Array.make num_buckets 0;
      count = 0;
      sum = 0.;
      sum_sq = 0.;
      vmin = infinity;
      vmax = neg_infinity;
      lock = Mutex.create () }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let bucket_of x =
    if x <= lowest then 0
    else
      let i =
        int_of_float
          (Float.floor (float per_octave *. Prelude.Float_ops.log2 (x /. lowest)))
      in
      if i < 0 then 0 else if i >= num_buckets then num_buckets - 1 else i

  (* Boundaries: bucket i covers (lower i, upper i]. *)
  let upper i = lowest *. Float.pow 2. (float (i + 1) /. float per_octave)
  let midpoint i = lowest *. Float.pow 2. ((float i +. 0.5) /. float per_octave)

  let observe t x =
    locked t (fun () ->
        t.counts.(bucket_of x) <- t.counts.(bucket_of x) + 1;
        t.count <- t.count + 1;
        t.sum <- t.sum +. x;
        t.sum_sq <- t.sum_sq +. (x *. x);
        if x < t.vmin then t.vmin <- x;
        if x > t.vmax then t.vmax <- x)

  let clear t =
    locked t (fun () ->
        Array.fill t.counts 0 num_buckets 0;
        t.count <- 0;
        t.sum <- 0.;
        t.sum_sq <- 0.;
        t.vmin <- infinity;
        t.vmax <- neg_infinity)

  let merge_into ~into src =
    (* Copy src under its lock first so the two locks never nest the
       other way around. *)
    let counts, count, sum, sum_sq, vmin, vmax =
      locked src (fun () ->
          ( Array.copy src.counts,
            src.count,
            src.sum,
            src.sum_sq,
            src.vmin,
            src.vmax ))
    in
    locked into (fun () ->
        Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) counts;
        into.count <- into.count + count;
        into.sum <- into.sum +. sum;
        into.sum_sq <- into.sum_sq +. sum_sq;
        if vmin < into.vmin then into.vmin <- vmin;
        if vmax > into.vmax then into.vmax <- vmax)

  let count t = locked t (fun () -> t.count)
  let sum t = locked t (fun () -> t.sum)
  let min_value t = locked t (fun () -> if t.count = 0 then nan else t.vmin)
  let max_value t = locked t (fun () -> if t.count = 0 then nan else t.vmax)
  let bucket_counts t = locked t (fun () -> Array.copy t.counts)

  (* Rank q of the stored distribution, estimated as the geometric
     midpoint of the bucket holding that rank, clamped to the exact
     observed range (a single sample therefore reports itself). *)
  let quantile_unlocked t q =
    if t.count = 0 then nan
    else begin
      let target = max 1 (int_of_float (Float.ceil (q *. float t.count))) in
      let i = ref 0 and cum = ref 0 in
      while !cum < target && !i < num_buckets do
        cum := !cum + t.counts.(!i);
        incr i
      done;
      let est = midpoint (max 0 (!i - 1)) in
      Float.min t.vmax (Float.max t.vmin est)
    end

  let quantile t q = locked t (fun () -> quantile_unlocked t q)

  let to_summary t : Prelude.Stats.summary =
    locked t (fun () ->
        if t.count = 0 then
          { Prelude.Stats.count = 0; mean = nan; stddev = nan; min = nan;
            max = nan; p50 = nan; p90 = nan; p99 = nan }
        else
          let n = float t.count in
          let mean = t.sum /. n in
          let stddev =
            if t.count < 2 then 0.
            else
              sqrt
                (Float.max 0.
                   ((t.sum_sq -. (n *. mean *. mean)) /. (n -. 1.)))
          in
          { Prelude.Stats.count = t.count;
            mean;
            stddev;
            min = t.vmin;
            max = t.vmax;
            p50 = quantile_unlocked t 0.50;
            p90 = quantile_unlocked t 0.90;
            p99 = quantile_unlocked t 0.99 })

  (* One-line textual codec ("h1 <count> <sum> <sumsq> <min> <max>
     i:c ..."), floats in hex so the round trip is bit-exact. Used by
     the Snapshot v2 envelope. *)
  let encode t =
    locked t (fun () ->
        let buf = Buffer.create 128 in
        Printf.bprintf buf "h1 %d %h %h %h %h" t.count t.sum t.sum_sq t.vmin
          t.vmax;
        Array.iteri
          (fun i c -> if c > 0 then Printf.bprintf buf " %d:%d" i c)
          t.counts;
        Buffer.contents buf)

  let decode s =
    let fail msg = Error (Printf.sprintf "Hist.decode: %s" msg) in
    match
      String.split_on_char ' ' (String.trim s)
      |> List.filter (fun tok -> tok <> "")
    with
    | "h1" :: count :: sum :: sum_sq :: vmin :: vmax :: buckets -> (
        match
          ( int_of_string_opt count,
            float_of_string_opt sum,
            float_of_string_opt sum_sq,
            float_of_string_opt vmin,
            float_of_string_opt vmax )
        with
        | Some count, Some sum, Some sum_sq, Some vmin, Some vmax -> (
            let t = create () in
            t.count <- count;
            t.sum <- sum;
            t.sum_sq <- sum_sq;
            t.vmin <- vmin;
            t.vmax <- vmax;
            match
              List.iter
                (fun tok ->
                  match String.split_on_char ':' tok with
                  | [ i; c ] -> (
                      match (int_of_string_opt i, int_of_string_opt c) with
                      | Some i, Some c when i >= 0 && i < num_buckets && c >= 0
                        ->
                          t.counts.(i) <- c
                      | _ -> failwith (Printf.sprintf "bad bucket %S" tok))
                  | _ -> failwith (Printf.sprintf "bad bucket %S" tok))
                buckets
            with
            | () -> Ok t
            | exception Failure msg -> fail msg)
        | _ -> fail "bad scalar field")
    | _ -> fail "bad magic (want h1)"
end

module Metrics = struct
  type counter = int Atomic.t
  type gauge = float Atomic.t

  type instrument =
    | Counter of counter
    | Gauge of gauge
    | Histogram of Hist.t

  let lock = Mutex.create ()

  let table : (string * (string * string) list, instrument) Hashtbl.t =
    Hashtbl.create 64

  let canon labels = List.sort compare labels

  let register name labels make match_ =
    let key = (name, canon labels) in
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match Hashtbl.find_opt table key with
        | Some i -> (
            match match_ i with
            | Some v -> v
            | None ->
                invalid_arg
                  (Printf.sprintf
                     "Obs.Metrics: %s already registered with another kind"
                     name))
        | None ->
            let i = make () in
            Hashtbl.replace table key i;
            match match_ i with Some v -> v | None -> assert false)

  let counter ?(labels = []) name =
    register name labels
      (fun () -> Counter (Atomic.make 0))
      (function Counter c -> Some c | _ -> None)

  let gauge ?(labels = []) name =
    register name labels
      (fun () -> Gauge (Atomic.make 0.))
      (function Gauge g -> Some g | _ -> None)

  let histogram ?(labels = []) name =
    register name labels
      (fun () -> Histogram (Hist.create ()))
      (function Histogram h -> Some h | _ -> None)

  let inc ?(n = 1) c = ignore (Atomic.fetch_and_add c n)
  let value c = Atomic.get c
  let set g v = Atomic.set g v
  let gauge_value g = Atomic.get g

  let snapshot () =
    Mutex.lock lock;
    let items =
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          Hashtbl.fold
            (fun (name, labels) i acc -> (name, labels, i) :: acc)
            table [])
    in
    List.sort
      (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))
      items

  (* Cross-label merges. A sharded engine registers one series per
     shard under the same metric name (labels [shard="i"]); these fold
     every label set of a name back into the process-wide total, which
     is the documented way to read "one engine" numbers off a
     multi-shard page. *)
  let sum_counter name =
    List.fold_left
      (fun acc -> function
        | n, _, Counter c when String.equal n name -> acc + Atomic.get c
        | _ -> acc)
      0 (snapshot ())

  let sum_gauge name =
    List.fold_left
      (fun acc -> function
        | n, _, Gauge g when String.equal n name -> acc +. Atomic.get g
        | _ -> acc)
      0. (snapshot ())

  let merged_histogram name =
    let out = Hist.create () in
    List.iter
      (function
        | n, _, Histogram h when String.equal n name ->
            Hist.merge_into ~into:out h
        | _ -> ())
      (snapshot ());
    out


  let reset () =
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () -> Hashtbl.reset table)
end

module Json = struct
  (* The engine's JSON reports are written with Printf, and "%f" of a
     nan or infinity ("nan", "inf") is not JSON. Every float that can
     legally be empty-histogram nan or an unmeasured sentinel must go
     through [num], which emits the explicit null convention instead. *)
  let num ?(precision = 6) x =
    if Float.is_finite x then Printf.sprintf "%.*f" precision x else "null"

  let num_g x = if Float.is_finite x then Printf.sprintf "%g" x else "null"

  (* Minimal validating parser — no values built, just a yes/no on
     RFC-8259 shape — so bench writers can refuse to leave an invalid
     document on disk and tests can pin the writers' output. *)
  let validate s =
    let n = String.length s in
    let pos = ref 0 in
    let exception Bad of string in
    let bad msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> bad (Printf.sprintf "expected %C" c)
    in
    let literal w =
      let l = String.length w in
      if !pos + l <= n && String.sub s !pos l = w then pos := !pos + l
      else bad (Printf.sprintf "expected %s" w)
    in
    let string_ () =
      expect '"';
      let fin = ref false in
      while not !fin do
        match peek () with
        | None -> bad "unterminated string"
        | Some '"' ->
            advance ();
            fin := true
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
                advance ()
            | Some 'u' ->
                advance ();
                for _ = 1 to 4 do
                  match peek () with
                  | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                  | _ -> bad "bad \\u escape"
                done
            | _ -> bad "bad escape")
        | Some c when Char.code c < 0x20 -> bad "control char in string"
        | Some _ -> advance ()
      done
    in
    let digits () =
      let saw = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        saw := true;
        advance ()
      done;
      if not !saw then bad "expected digit"
    in
    let number () =
      (match peek () with Some '-' -> advance () | _ -> ());
      digits ();
      (match peek () with
      | Some '.' ->
          advance ();
          digits ()
      | _ -> ());
      match peek () with
      | Some ('e' | 'E') ->
          advance ();
          (match peek () with Some ('+' | '-') -> advance () | _ -> ());
          digits ()
      | _ -> ()
    in
    let rec value () =
      skip_ws ();
      (match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then advance ()
          else begin
            let more = ref true in
            while !more do
              skip_ws ();
              string_ ();
              skip_ws ();
              expect ':';
              value ();
              skip_ws ();
              match peek () with
              | Some ',' -> advance ()
              | Some '}' ->
                  advance ();
                  more := false
              | _ -> bad "expected , or }"
            done
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then advance ()
          else begin
            let more = ref true in
            while !more do
              value ();
              skip_ws ();
              match peek () with
              | Some ',' -> advance ()
              | Some ']' ->
                  advance ();
                  more := false
              | _ -> bad "expected , or ]"
            done
          end
      | Some '"' -> string_ ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> bad "expected value");
      skip_ws ()
    in
    match
      value ();
      if !pos <> n then bad "trailing garbage"
    with
    | () -> Ok ()
    | exception Bad msg -> Error msg

  let validate_file path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    match validate s with
    | Ok () -> Ok ()
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
end

module Trace = struct
  let lock = Mutex.create ()
  let chan : out_channel option ref = ref None
  let emitted = Atomic.make 0

  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let close () =
    locked (fun () ->
        match !chan with
        | Some oc ->
            chan := None;
            close_out oc
        | None -> ())

  let set_output path =
    close ();
    let oc = open_out_bin path in
    locked (fun () -> chan := Some oc)

  let enabled () = !chan <> None
  let spans_emitted () = Atomic.get emitted

  let () = at_exit close

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let emit_span ~name ~id ~parent ~start ~dur ~attrs =
    locked (fun () ->
        match !chan with
        | None -> ()
        | Some oc ->
            let buf = Buffer.create 160 in
            Printf.bprintf buf "{\"name\":\"%s\",\"id\":%d,\"parent\":%s"
              (escape name) id
              (match parent with Some p -> string_of_int p | None -> "null");
            Printf.bprintf buf ",\"start_s\":%.6f,\"dur_s\":%.9f" start dur;
            if attrs <> [] then begin
              Buffer.add_string buf ",\"attrs\":{";
              List.iteri
                (fun i (k, v) ->
                  if i > 0 then Buffer.add_char buf ',';
                  Printf.bprintf buf "\"%s\":\"%s\"" (escape k) (escape v))
                attrs;
              Buffer.add_char buf '}'
            end;
            Buffer.add_string buf "}\n";
            (* No per-line flush: the sink is best-effort telemetry
               and close (installed at_exit) flushes everything. *)
            output_string oc (Buffer.contents buf);
            ignore (Atomic.fetch_and_add emitted 1))
end

module Span = struct
  let next_id = Atomic.make 1

  (* The current span id, per domain. Pool submissions capture it on
     the submitting domain and re-install it around each task (see the
     task wrapper below), so spans opened inside pool tasks parent to
     the span that submitted the region. *)
  let context : int option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let current () = !(Domain.DLS.get context)

  let with_ ?(attrs = []) ~name f =
    let r = Domain.DLS.get context in
    let parent = !r in
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = Clock.now () in
    r := Some id;
    let finish () =
      r := parent;
      let dur = Clock.elapsed_since t0 in
      Hist.observe
        (Metrics.histogram ~labels:[ ("span", name) ] "span_duration_seconds")
        dur;
      if Trace.enabled () then
        Trace.emit_span ~name ~id ~parent ~start:t0 ~dur ~attrs
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
end

(* Pool instrumentation + span-context propagation: the factory runs
   once per submitted region on the submitting domain (capturing the
   parent span and the submit time); the returned wrapper runs around
   every task on whichever domain picks it up. The handles are created
   eagerly: worker domains use them, and two domains forcing one
   [lazy] at once raise [CamlinternalLazy.Undefined]. *)
let pool_tasks = Metrics.counter "pool_tasks_total"
let pool_regions = Metrics.counter "pool_regions_total"
let pool_queue_delay = Metrics.histogram "pool_task_queue_delay_seconds"
let pool_task_run = Metrics.histogram "pool_task_run_seconds"

let () =
  Prelude.Pool.set_task_wrapper
    (Some
       (fun () ->
         let parent = Span.current () in
         let submitted = Clock.now () in
         Metrics.inc pool_regions;
         fun task () ->
           Metrics.inc pool_tasks;
           let r = Domain.DLS.get Span.context in
           let saved = !r in
           r := parent;
           let t0 = Clock.now () in
           Hist.observe pool_queue_delay (t0 -. submitted);
           Fun.protect
             ~finally:(fun () ->
               Hist.observe pool_task_run
                 (Clock.elapsed_since t0);
               r := saved)
             task))

module Export = struct
  let label_string labels =
    match labels with
    | [] -> ""
    | labels ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (Trace.escape v))
               labels)
        ^ "}"

  let prom_float x =
    if Float.is_nan x then "NaN"
    else if x = infinity then "+Inf"
    else if x = neg_infinity then "-Inf"
    else Printf.sprintf "%.9g" x

  let refresh_gauges () =
    Metrics.set (Metrics.gauge "pool_domains")
      (float (Prelude.Pool.num_domains ()))

  let prometheus () =
    refresh_gauges ();
    let buf = Buffer.create 4096 in
    let typed = Hashtbl.create 16 in
    let header name kind =
      if not (Hashtbl.mem typed name) then begin
        Hashtbl.replace typed name ();
        Printf.bprintf buf "# TYPE %s %s\n" name kind
      end
    in
    List.iter
      (fun (name, labels, i) ->
        match i with
        | Metrics.Counter c ->
            header name "counter";
            Printf.bprintf buf "%s%s %d\n" name (label_string labels)
              (Metrics.value c)
        | Metrics.Gauge g ->
            header name "gauge";
            Printf.bprintf buf "%s%s %s\n" name (label_string labels)
              (prom_float (Metrics.gauge_value g))
        | Metrics.Histogram h ->
            header name "histogram";
            let counts = Hist.bucket_counts h in
            let cum = ref 0 in
            Array.iteri
              (fun b c ->
                if c > 0 then begin
                  cum := !cum + c;
                  Printf.bprintf buf "%s_bucket%s %d\n" name
                    (label_string (labels @ [ ("le", prom_float (Hist.upper b)) ]))
                    !cum
                end)
              counts;
            Printf.bprintf buf "%s_bucket%s %d\n" name
              (label_string (labels @ [ ("le", "+Inf") ]))
              (Hist.count h);
            Printf.bprintf buf "%s_sum%s %s\n" name (label_string labels)
              (prom_float (Hist.sum h));
            Printf.bprintf buf "%s_count%s %d\n" name (label_string labels)
              (Hist.count h))
      (Metrics.snapshot ());
    Buffer.contents buf

  let write_prometheus path =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (prometheus ()))

  let stats_table () =
    refresh_gauges ();
    let module T = Prelude.Table in
    let t =
      T.create
        [ ("metric", T.Left); ("kind", T.Left); ("count", T.Right);
          ("mean", T.Right); ("p50", T.Right); ("p90", T.Right);
          ("p99", T.Right); ("max", T.Right) ]
    in
    let name_of base labels =
      base
      ^ String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf "[%s=%s]" k v) labels)
    in
    List.iter
      (fun (name, labels, i) ->
        match i with
        | Metrics.Counter c ->
            T.add_row t
              [ name_of name labels; "counter";
                string_of_int (Metrics.value c); "-"; "-"; "-"; "-"; "-" ]
        | Metrics.Gauge g ->
            T.add_row t
              [ name_of name labels; "gauge"; "-";
                T.cell_f (Metrics.gauge_value g); "-"; "-"; "-"; "-" ]
        | Metrics.Histogram h ->
            let s = Hist.to_summary h in
            T.add_row t
              [ name_of name labels; "histogram";
                string_of_int s.Prelude.Stats.count;
                T.cell_f s.Prelude.Stats.mean;
                T.cell_f s.Prelude.Stats.p50;
                T.cell_f s.Prelude.Stats.p90;
                T.cell_f s.Prelude.Stats.p99;
                T.cell_f s.Prelude.Stats.max ])
      (Metrics.snapshot ());
    T.render t
end
