type config = { shadow : Engine.shadow_kind; skip : bool; workers : int }

let default = { shadow = Engine.Perfect; skip = true; workers = 0 }

let to_string c =
  Printf.sprintf "shadow=%s skip=%b workers=%d"
    (match c.shadow with
    | Engine.Perfect -> "perfect"
    | Engine.Signature n -> Printf.sprintf "signature:%d" n)
    c.skip c.workers

let check c =
  match c.shadow with
  | Engine.Signature n when n < 1 ->
      Error (Printf.sprintf "bad signature slots: %d" n)
  | _ when c.workers < 0 -> Error "workers must be >= 0"
  | _ -> Ok c

let run ?cancelled c prog =
  if c.workers <= 0 then
    Serial.profile ~shadow:c.shadow ~skip:c.skip ?cancelled prog
  else
    match c.shadow with
    | Engine.Perfect ->
        Parallel.profile ~workers:c.workers ~perfect:true ~skip:c.skip
          ?cancelled prog
    | Engine.Signature n ->
        Parallel.profile ~workers:c.workers ~shadow_slots:n ~skip:c.skip
          ?cancelled prog
