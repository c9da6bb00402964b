(* etap-serve/1 — the line protocol of the campaign daemon.

   One request per line, one response per line, both compact JSON.
   Requests carry a client-chosen [id] (any JSON value) that the
   response echoes verbatim, so clients may pipeline. Three
   work-bearing shapes name a campaign command, read by
   [Request.of_json] into the [Request.t] the CLI builds from its
   flags:

     {"id": 1, "cmd": "inject", "app": "gsm",
      "errors": 3, "trials": 10, "seed": 1, "literal": false}
     {"id": 2, "cmd": "matrix", "spec": {"apps": ["adpcm"], "errors": [1]}}
     {"id": 3, "cmd": "audit", "app": "gsm", "errors": 2, "trials": 5}

   Absent inject and audit fields take [Request.defaults], the CLI
   flags' defaults (an audit without "app" covers every app); a matrix
   [spec] object is read by the same [Matrix.spec_of_json] that reads
   [--spec] files, against the same default spec. `etap profile` and
   `etap reproduce` are not served (DESIGN.md §17). Control verbs:
   ["ping"] (liveness probe, answered with an ["info"] health object:
   uptime, requests served, schema versions), ["stats"] (live
   introspection, answered with an [etap-stats/1] document under a
   ["stats"] key — see DESIGN.md §18) and ["shutdown"] (stop the
   daemon after responding).

   Responses embed the same [etap-report/1] document the CLI writes:

     {"schema": "etap-serve/1", "id": 1, "status": "ok", "report": {...}}
     {"schema": "etap-serve/1", "id": 3, "status": "failed",
      "error": "...", "report": {...}?}

   [status] is the typed surface: "failed" carries a human-readable
   [error] and — when the failure is per-cell (or a soundness
   violation) rather than structural — still the full report, so a
   matrix or audit with one failed cell never yields a silent partial
   result. Malformed lines get a "failed" response with a null id; the
   connection stays up. *)

module J = Report.Json

let schema = "etap-serve/1"
let stats_schema = "etap-stats/1"
let access_schema = "etap-access/1"

(* ----------------------------- requests ---------------------------- *)

type request =
  | Run of Request.t  (* a campaign command: inject, matrix or audit *)
  | Ping
  | Stats  (* live introspection: answered with an etap-stats/1 doc *)
  | Shutdown

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
      | Some (J.Str "ping") -> Ok Ping
      | Some (J.Str "stats") -> Ok Stats
      | Some (J.Str "shutdown") -> Ok Shutdown
      | Some (J.Str c) -> (
        match Request.of_json c j with
        | Some r -> Result.map (fun r -> Run r) r
        | None -> Error (Printf.sprintf "unknown cmd %S" c))
      | Some _ -> Error "field \"cmd\": expected a string"
      | None -> Error "request: missing \"cmd\""
    in
    (id, req)

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
