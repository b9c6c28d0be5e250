package serve

import "testing"

// failEncoding makes every execution's response encoding fail with err until
// the test ends. Call it before New, so no worker reads the hook while it
// changes.
func failEncoding(t testing.TB, err error) {
	old := marshalResponse
	marshalResponse = func(any) ([]byte, error) { return nil, err }
	t.Cleanup(func() { marshalResponse = old })
}
