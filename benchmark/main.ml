(* The repository benchmark: one seeded command that measures delta
   ingest, reflect and durable latency, recovery and plan quality over
   three engine workloads, plus a traced per-layer pass.

     dune exec benchmark/main.exe -- --seed N [--workload W] [--seconds S]
       [--trace 0|1] [--out F] [--trace-out T] [--smoke]

   With --workload, runs that workload in this process and prints, as
   its last line, {"correct", "attempted", "failed", "metrics"} with
   the end-to-end metrics (--trace 0) or the per-layer ones
   (--trace 1). Without it, runs every workload in its own process,
   one after another, so heap peaks and GC state stay separate. Exits
   non-zero when a correctness check fails. See benchmark/README.md. *)

let usage = "main.exe --seed N [--workload W] [--seconds S] [--trace 0|1] [--out F] [--trace-out T] [--smoke]"

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let write_file path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let write_json path text =
  write_file path text;
  match Sut.validate_json_file path with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "%s: invalid JSON: %s" path e)

let correct (r : Run.result) = r.failed = 0 && List.for_all snd r.checks

let metric_json (m : Run.metric) = obj [ ("value", num m.value); ("unit", str m.unit_) ]

(* The full record of one workload run, for --out. *)
let result_json ~seed ~seconds ~trace ~smoke (r : Run.result) =
  obj
    [ ("workload", str r.workload.name);
      ("why", str r.workload.why);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", string_of_bool trace);
      ("smoke", string_of_bool smoke);
      ( "host",
        obj
          [ ("cores", string_of_int (Domain.recommended_domain_count ()));
            ("ocaml", str Sys.ocaml_version);
            ("domains", string_of_int (Sut.domains ())) ] );
      ("deltas", string_of_int r.deltas);
      ("rounds", string_of_int r.rounds);
      ("correct", string_of_bool (correct r));
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("checks", obj (List.map (fun (k, ok) -> (k, string_of_bool ok)) r.checks));
      ( "metrics",
        obj
          (List.map
             (fun (m : Run.metric) ->
               ( m.name,
                 obj [ ("value", num m.value); ("unit", str m.unit_); ("samples", string_of_int m.samples) ] ))
             r.metrics) );
      ( "series",
        obj
          (List.map
             (fun (name, a) -> (name, "[" ^ String.concat ", " (Array.to_list (Array.map num a)) ^ "]"))
             r.series) ) ]

let print_report ~seed (r : Run.result) =
  Printf.printf "== %s (seed %d, %d deltas per pass) ==\n" r.workload.name seed r.deltas;
  Printf.printf "%-32s %22s  %-8s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun (m : Run.metric) -> Printf.printf "%-32s %22.6f  %-8s %d\n" m.name m.value m.unit_ m.samples)
    r.metrics;
  List.iter (fun (k, ok) -> Printf.printf "check %-56s %s\n" k (if ok then "ok" else "FAILED")) r.checks;
  Printf.printf "attempted %d, failed %d\n" r.attempted r.failed

let mkdir_p dir = try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Scratch files (WALs) live under the current directory, never in a
   system temp dir, and are removed when the run ends. *)
let with_run_dir name f =
  mkdir_p ".bench_run";
  let dir = Filename.concat ".bench_run" (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  Run.remove_tree dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Run.remove_tree dir;
      try Unix.rmdir ".bench_run" with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let run_one ~seed ~seconds ~trace ~smoke ~out ~trace_out (w : Run.workload) =
  let r = with_run_dir w.name (fun dir -> Run.run ~smoke ~seed ~seconds ~trace ~dir w) in
  print_report ~seed r;
  Option.iter (fun path -> write_json path (result_json ~seed ~seconds ~trace ~smoke r)) out;
  (match (trace_out, r.spans) with
  | Some path, Some spans -> Span.write_jsonl spans path
  | _ -> ());
  let wanted = List.map fst (if trace then Run.per_layer else Run.end_to_end) in
  let metrics = List.filter (fun (m : Run.metric) -> List.mem m.name wanted) r.metrics in
  print_endline
    (obj
       [ ("correct", string_of_bool (correct r));
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ("metrics", obj (List.map (fun (m : Run.metric) -> (m.name, metric_json m)) metrics)) ]);
  if not (correct r) then exit 1

let suffixed path name =
  let ext = Filename.extension path in
  Filename.remove_extension path ^ "." ^ name ^ ext

(* Every workload in a child process of its own, one after another. *)
let run_all ~seed ~seconds ~trace ~smoke ~out ~trace_out =
  let all_ok =
  with_run_dir "all" (fun dir ->
      let results =
        List.map
          (fun (w : Run.workload) ->
            let res = Filename.concat dir (w.name ^ ".json") in
            let args =
              [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
                "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0");
                "--out"; res ]
              @ (if smoke then [ "--smoke" ] else [])
              @ match trace_out with Some t -> [ "--trace-out"; suffixed t w.name ] | None -> []
            in
            flush stdout;
            let pid =
              Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
                Unix.stderr
            in
            let ok = match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false in
            (w.name, ok, if Sys.file_exists res then Some (read_file res) else None))
          Run.workloads
      in
      let all_ok = List.for_all (fun (_, ok, _) -> ok) results in
      let doc =
        obj
          [ ("correct", string_of_bool all_ok);
            ( "workloads",
              obj (List.map (fun (name, _, json) -> (name, Option.value ~default:"null" json)) results) ) ]
      in
      Option.iter (fun path -> write_json path doc) out;
      print_endline doc;
      all_ok)
  in
  if not all_ok then exit 1

let () =
  let seed = ref None and workload = ref None and seconds = ref 25 and trace = ref 0 in
  let out = ref None and trace_out = ref None and smoke = ref false in
  let spec =
    [ ("--seed", Arg.Int (fun n -> seed := Some n), "N  workload seed (required)");
      ("--workload", Arg.String (fun w -> workload := Some w), "W  steady|replicated|sharded");
      ("--seconds", Arg.Set_int seconds, "S  measured run length (default 25)");
      ("--trace", Arg.Set_int trace, "0|1  report per-layer metrics from a traced pass");
      ("--out", Arg.String (fun f -> out := Some f), "F  write the full result as JSON");
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "T  write the traced spans as JSONL");
      ("--smoke", Arg.Set smoke, " about 100x smaller sizes, for tests") ]
  in
  let fail msg =
    prerr_endline ("benchmark: " ^ msg);
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> fail ("unexpected argument " ^ a)) usage with
  | Arg.Bad msg -> fail msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  let seed = match !seed with Some s -> s | None -> fail "--seed is required" in
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  let trace = !trace = 1 || !trace_out <> None in
  match !workload with
  | None -> run_all ~seed ~seconds:!seconds ~trace ~smoke:!smoke ~out:!out ~trace_out:!trace_out
  | Some name -> (
      match Run.find name with
      | None -> fail ("unknown workload " ^ name)
      | Some w -> (
          try run_one ~seed ~seconds:!seconds ~trace ~smoke:!smoke ~out:!out ~trace_out:!trace_out w
          with e -> fail (Printexc.to_string e)))
