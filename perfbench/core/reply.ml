type outcome = Correct | Wrong of string | Overloaded | Missing

let body reply =
  let reply = String.trim reply in
  if String.length reply > 0 && reply.[0] = '[' then
    match String.index_opt reply ']' with
    | Some i -> String.trim (String.sub reply (i + 1) (String.length reply - i - 1))
    | None -> reply
  else reply

let judge ~expected = function
  | None -> Missing
  | Some reply ->
    let b = body reply in
    if b = "overloaded" then Overloaded
    else if String.starts_with ~prefix:expected b then Correct
    else Wrong b

let failed = function Correct -> false | Wrong _ | Overloaded | Missing -> true
