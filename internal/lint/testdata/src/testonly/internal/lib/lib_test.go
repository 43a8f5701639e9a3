package lib

// Test files are callers that do not count, and are not checked: this
// exported helper has no caller at all and stays silent.
func ExportedInTest() int { return TestOnlyHelper() + Reference() }
