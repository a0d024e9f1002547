// Fixture for the `pragma` check. Expected findings: exactly THREE `pragma`
// findings — a malformed pragma, an unknown rule, and a missing reason.

fn malformed() {
    // swift-lint: permit everything please
}

fn unknown_rule() {
    // swift-lint: allow(no-such-rule) -- confidently wrong
}

fn missing_reason() {
    // swift-lint: allow(atomic-ordering)
}

fn well_formed() {
    // swift-lint: allow(protocol) -- this one is fine and produces no finding
}
