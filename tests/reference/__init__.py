"""Independent reference implementations the test suite checks against."""
