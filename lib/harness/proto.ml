(* etap-serve/1 — the line protocol of the campaign daemon.

   One request per line, one response per line, both compact JSON.
   Requests carry a client-chosen [id] (any JSON value) that the
   response echoes verbatim, so clients may pipeline. Two work-bearing
   shapes mirror the CLI subcommands:

     {"id": 1, "cmd": "inject", "app": "gsm",
      "errors": 3, "trials": 10, "seed": 1, "literal": false}
     {"id": 2, "cmd": "matrix", "spec": {"apps": ["adpcm"], "errors": [1]}}

   plus ["ping"] (liveness probe, answered with an ["info"] health
   object: uptime, requests served, schema versions), ["stats"] (live
   introspection, answered with an [etap-stats/1] document under a
   ["stats"] key — see DESIGN.md §18) and ["shutdown"] (stop the
   daemon after responding). Optional inject fields default exactly
   like the
   CLI flags; a matrix [spec] object is read by the same
   [Matrix.spec_of_json] that reads [--spec] files, against the same
   default spec.

   Responses embed the same [etap-report/1] document the CLI writes:

     {"schema": "etap-serve/1", "id": 1, "status": "ok", "report": {...}}
     {"schema": "etap-serve/1", "id": 3, "status": "failed",
      "error": "...", "report": {...}?}

   [status] is the typed surface: "failed" carries a human-readable
   [error] and — when the failure is per-cell rather than structural —
   still the full report, so a matrix with one failed cell never
   yields a silent partial result. Malformed lines get a "failed"
   response with a null id; the connection stays up. *)

module J = Report.Json

let schema = "etap-serve/1"
let stats_schema = "etap-stats/1"
let access_schema = "etap-access/1"

(* ----------------------------- requests ---------------------------- *)

type inject_req = {
  app : string;
  errors : int;
  trials : int;
  seed : int;
  literal : bool;
}

type request =
  | Inject of inject_req
  | Matrix of Matrix.spec
  | Ping
  | Stats  (* live introspection: answered with an etap-stats/1 doc *)
  | Shutdown

(* Defaults mirror the CLI flags (etap inject -e 10 -t 20 --seed 1). *)
let inject_defaults = { app = ""; errors = 10; trials = 20; seed = 1; literal = false }

let field_int ?(check = Result.ok) j name default =
  match J.member name j with
  | None -> Ok default
  | Some (J.Int i) ->
    Result.map_error (Printf.sprintf "field %S: %s" name) (check i)
  | Some _ -> Error (Printf.sprintf "field %S: expected an int" name)

let field_bool j name default =
  match J.member name j with
  | None -> Ok default
  | Some (J.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S: expected a bool" name)

let inject_of_json (j : J.t) : (request, string) result =
  let ( let* ) = Result.bind in
  let* app =
    match J.member "app" j with
    | Some (J.Str s) -> Ok s
    | Some _ -> Error "field \"app\": expected a string"
    | None -> Error "inject request: missing \"app\""
  in
  let d = inject_defaults in
  let* errors = field_int ~check:Matrix.check_errors j "errors" d.errors in
  let* trials = field_int ~check:Matrix.check_trials j "trials" d.trials in
  let* seed = field_int j "seed" d.seed in
  let* literal = field_bool j "literal" d.literal in
  Ok (Inject { app; errors; trials; seed; literal })

(* [request_of_line] never raises: any malformed line becomes
   [Error msg] alongside whatever [id] could be salvaged (Null when
   the line was not even JSON), so the daemon can always answer with
   a typed failure addressed to the right request. *)
let request_of_line (line : string) : J.t * (request, string) result =
  match J.of_string line with
  | Error m -> (J.Null, Error ("request is not valid JSON: " ^ m))
  | Ok j ->
    let id = Option.value ~default:J.Null (J.member "id" j) in
    let req =
      match J.member "cmd" j with
      | Some (J.Str "inject") -> inject_of_json j
      | Some (J.Str "matrix") -> (
        match J.member "spec" j with
        | Some spec ->
          Result.map
            (fun s -> Matrix s)
            (Matrix.spec_of_json ~base:Matrix.default_spec spec)
        | None -> Error "matrix request: missing \"spec\"")
      | Some (J.Str "ping") -> Ok Ping
      | Some (J.Str "stats") -> Ok Stats
      | Some (J.Str "shutdown") -> Ok Shutdown
      | Some (J.Str c) -> Error (Printf.sprintf "unknown cmd %S" c)
      | Some _ -> Error "field \"cmd\": expected a string"
      | None -> Error "request: missing \"cmd\""
    in
    (id, req)

(* Canonical identity of the computation a request names — everything
   that determines its report, nothing else (not the id, not the
   client). Two in-flight requests with equal group keys are the same
   work; the daemon runs one and fans the result out. *)
let group_key (r : request) : string =
  match r with
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Inject i ->
    Printf.sprintf "inject app=%s errors=%d trials=%d seed=%d literal=%b"
      i.app i.errors i.trials i.seed i.literal
  | Matrix s ->
    Printf.sprintf "matrix apps=%s mode=%s policies=%s errors=%s trials=%d seed=%d"
      (String.concat "," s.Matrix.apps)
      (Experiment.mode_name s.Matrix.mode)
      (String.concat ","
         (List.map Core.Policy.to_string s.Matrix.policies))
      (String.concat "," (List.map string_of_int s.Matrix.errors))
      s.Matrix.trials s.Matrix.seed

(* ----------------------------- responses --------------------------- *)

type response = {
  rid : J.t;  (* echoed request id *)
  report : Report.t option;
  error : string option;  (* None = status ok *)
  extra : (string * J.t) list;
      (* verb-specific payloads appended to the response object: a
         [stats] response carries ("stats", <etap-stats/1 doc>), a
         [ping] response ("info", <health doc>). Empty for work-bearing
         verbs, whose payload is the report. *)
}

let response_json (r : response) : J.t =
  J.Obj
    ([
       ("schema", J.Str schema);
       ("id", r.rid);
       ("status", J.Str (if r.error = None then "ok" else "failed"));
     ]
    @ (match r.error with None -> [] | Some e -> [ ("error", J.Str e) ])
    @ (match r.report with
      | None -> []
      | Some rep -> [ ("report", Report.to_json rep) ])
    @ r.extra)

let response_line (r : response) : string =
  J.to_compact_string (response_json r)

(* Client-side reader ([etap serve --connect], tests, etapbench). *)
type reply = {
  id : J.t;
  ok : bool;
  error : string option;
  report : J.t option;  (* the embedded etap-report/1 document *)
  body : J.t;  (* the whole response object, for verb-specific
                  payloads ("stats", "info") *)
}

let reply_of_line (line : string) : (reply, string) result =
  let ( let* ) = Result.bind in
  let* j = J.of_string line in
  let* () =
    if J.member "schema" j = Some (J.Str schema) then Ok ()
    else Error (Printf.sprintf "response without %s schema marker" schema)
  in
  let* ok =
    match J.member "status" j with
    | Some (J.Str "ok") -> Ok true
    | Some (J.Str "failed") -> Ok false
    | _ -> Error "response without a typed status"
  in
  let error =
    match J.member "error" j with Some (J.Str e) -> Some e | _ -> None
  in
  Ok
    {
      id = Option.value ~default:J.Null (J.member "id" j);
      ok;
      error;
      report = J.member "report" j;
      body = j;
    }
